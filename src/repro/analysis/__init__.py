"""Analysis layer: regenerates every table and figure of the paper from
simulated measurements — unique-IP time series (Figs. 4/5), the mapping
graph (Fig. 2), site discovery (Fig. 3 / Table 1), header-based
structure inference (§3.3), offload ratios (Fig. 7) and overflow shares
(Fig. 8)."""

from .categories import CATEGORY_ORDER, CdnCategorizer
from .diurnality import (
    FlatnessVerdict,
    classify_flatness,
    day_flatness,
    operator_flatness,
)
from .enumeration import EnumerationResult, enumerate_names, generate_candidates
from .headers import HierarchyInference, infer_hierarchy
from .mapping_graph import MappingEdge, MappingGraph
from .offload import (
    OffloadSummary,
    excess_volume_shares,
    operator_series,
    ratio_peaks,
    summarize_offload,
    traffic_ratio_series,
)
from .paths import (
    GeolocationEstimate,
    PathSummary,
    geolocate_caches,
    geolocation_errors_km,
    summarize_paths,
)
from .overflow import (
    OverflowSummary,
    first_seen,
    overflow_share_series,
    peak_share,
    summarize_overflow,
)
from .scoreboard import (
    PAPER_TARGETS,
    TargetCheck,
    evaluate_scoreboard,
    render_scoreboard,
)
from .sites import SiteDiscovery, SiteRecord, discover_sites
from .unique_ips import (
    UniqueIpPoint,
    count_change_ratio,
    peak_vs_baseline,
    series_by_continent,
    unique_ip_series,
)

__all__ = [
    "CdnCategorizer",
    "CATEGORY_ORDER",
    "UniqueIpPoint",
    "unique_ip_series",
    "series_by_continent",
    "peak_vs_baseline",
    "count_change_ratio",
    "MappingGraph",
    "MappingEdge",
    "SiteDiscovery",
    "SiteRecord",
    "discover_sites",
    "EnumerationResult",
    "enumerate_names",
    "generate_candidates",
    "FlatnessVerdict",
    "classify_flatness",
    "day_flatness",
    "operator_flatness",
    "HierarchyInference",
    "infer_hierarchy",
    "operator_series",
    "traffic_ratio_series",
    "ratio_peaks",
    "excess_volume_shares",
    "OffloadSummary",
    "summarize_offload",
    "overflow_share_series",
    "GeolocationEstimate",
    "geolocate_caches",
    "geolocation_errors_km",
    "PathSummary",
    "summarize_paths",
    "TargetCheck",
    "PAPER_TARGETS",
    "evaluate_scoreboard",
    "render_scoreboard",
    "first_seen",
    "peak_share",
    "OverflowSummary",
    "summarize_overflow",
]
