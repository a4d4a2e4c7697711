"""One-shot paper report: every reproduced result in a single document.

:func:`measure` takes a completed scenario run and measures Figures 2-8,
the Table 1 facts and the beyond-the-paper sections once, into one
:class:`PaperFigures`.  :func:`render` turns that into the text report a
replication study would attach; :func:`generate_report` is the two in a
row.  The scoreboard (:mod:`repro.analysis.scoreboard`) and the figure
benches read the same :class:`PaperFigures` instead of measuring again.
The CLI (``python -m repro report``) and the ``examples/`` scripts use
:func:`generate_report`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..isp.classify import TrafficClassifier
from ..net.geo import Continent
from ..workload.timeline import Timeline
from .categories import CdnCategorizer
from .mapping_graph import MappingGraph
from .offload import OffloadSummary, summarize_offload
from .overflow import OverflowSummary, summarize_overflow
from .paths import PathSummary, geolocate_caches, geolocation_errors_km, summarize_paths
from .sites import SiteDiscovery, discover_sites
from .unique_ips import (
    UniqueIpPoint,
    peak_vs_baseline,
    series_by_continent,
    unique_ip_series,
)

if TYPE_CHECKING:
    from ..anycast import CatchmentAnalysis
    from .resolver_accuracy import ResolverAccuracy

__all__ = ["PaperFigures", "measure", "render", "generate_report"]

_RULE = "=" * 72


@dataclass(frozen=True)
class PaperFigures:
    """Every figure of one run, measured once.

    A section the run has no data for is ``None``.  Summaries only: no
    per-flow or per-measurement object is kept.
    """

    timeline: Timeline
    steering: str
    mapping: Optional[MappingGraph]  # Figure 2, from the AWS-VM campaign
    availability: Optional[float]  # share of AWS-VM availability checks passed
    sites: SiteDiscovery  # Figure 3 / Table 1
    paths: Optional[PathSummary]  # the traceroute campaign
    geolocated: int  # caches placed by min-RTT geolocation
    geolocation_errors_km: tuple[float, ...]  # ascending
    facets: Optional[dict[Continent, list[UniqueIpPoint]]]  # Figure 4
    # (post-release peak, pre-release average) per non-empty facet, in
    # Continent order
    spikes: Optional[dict[Continent, tuple[int, float]]]
    isp_series: Optional[list[UniqueIpPoint]]  # Figure 5
    offload: Optional[OffloadSummary]  # Figure 7
    overflow: Optional[OverflowSummary]  # Figure 8
    catchments: Optional[CatchmentAnalysis]  # anycast steering only
    resolvers: Optional[ResolverAccuracy]  # a resolver population only

    @property
    def release(self) -> float:
        """The iOS 11.0 release instant every figure is read around."""
        return self.timeline.ios_11_0_release

    @property
    def median_geolocation_error_km(self) -> Optional[float]:
        """The median min-RTT geolocation error, if any cache was placed."""
        errors = self.geolocation_errors_km
        return errors[len(errors) // 2] if errors else None

    def spike_factor(self, continent: Continent) -> Optional[float]:
        """Figure 4's post-release peak over the pre-release average."""
        if not self.spikes or continent not in self.spikes:
            return None
        peak, baseline = self.spikes[continent]
        return peak / baseline if baseline else 0.0


def measure(scenario) -> PaperFigures:
    """Measure every figure of a completed run.

    ``scenario`` is a :class:`~repro.simulation.scenario.Sep2017Scenario`
    whose engine has been run across (at least) the event window.
    """
    from ..simulation.scenario import AS_TRANSIT_D

    tl = scenario.timeline
    release = tl.ios_11_0_release

    resolutions = scenario.aws_campaign.resolutions()
    mapping = availability = None
    if resolutions:
        mapping = MappingGraph.from_resolutions(resolutions)
        availability = scenario.aws_campaign.availability_ratio()

    paths, geolocated, errors = None, 0, []
    traces = scenario.traceroute_campaign.store.traceroute_columns
    if len(traces):
        estimates = geolocate_caches(traces, scenario.global_probes)
        truth = {
            placed.server.address: placed.location.coordinates
            for deployment in scenario.estate.deployments.values()
            for placed in deployment.servers
        }
        paths = summarize_paths(traces)
        geolocated = len(estimates)
        errors = geolocation_errors_km(estimates, truth)

    categorizer = CdnCategorizer(scenario.estate.deployments)
    facets = spikes = None
    global_store = scenario.global_campaign.store
    if global_store.dns_count:
        # One streaming pass over the columnar store builds every
        # continent facet.
        facets = series_by_continent(global_store, categorizer.category, 7200.0)
        spikes = {
            continent: peak_vs_baseline(series, release)
            for continent, series in facets.items()
            if series
        }
    isp_series = None
    isp_store = scenario.isp_campaign.store
    if isp_store.dns_count:
        isp_series = unique_ip_series(isp_store, categorizer.category, 43200.0)

    offload = overflow = None
    records = scenario.netflow.records
    if records:
        classifier = TrafficClassifier(
            scenario.isp, scenario.rib, scenario.operator_of
        )
        # The hourly roll-up, not every flow: Figures 7 and 8 bin on
        # 3 600 s and 21 600 s, whole multiples of it, so the sums are
        # the same (see ``FlowLog.rollup``).
        classified = list(classifier.classify_all(records.rollup(3600.0)))
        offload = summarize_offload(classified, tl.day_start(release))
        overflow = summarize_overflow(
            classified,
            new_as=AS_TRANSIT_D,
            isp=scenario.isp,
            snmp=scenario.snmp,
            peak_probe_times=[release + hour * 3600.0 for hour in range(48)],
        )

    catchments = None
    if scenario.anycast is not None:
        from ..anycast import CatchmentAnalysis

        catchments = CatchmentAnalysis.from_plane(scenario.anycast)
    resolvers = None
    if scenario.resolver_plane is not None:
        from .resolver_accuracy import ResolverAccuracy

        resolvers = ResolverAccuracy.from_scenario(scenario)

    return PaperFigures(
        timeline=tl,
        steering=scenario.config.steering,
        mapping=mapping,
        availability=availability,
        sites=discover_sites(scenario.estate.apple.reverse_dns_table()),
        paths=paths,
        geolocated=geolocated,
        geolocation_errors_km=tuple(errors),
        facets=facets,
        spikes=spikes,
        isp_series=isp_series,
        offload=offload,
        overflow=overflow,
        catchments=catchments,
        resolvers=resolvers,
    )


def _section(title: str) -> list[str]:
    return ["", _RULE, title, _RULE, ""]


def render(figures: PaperFigures) -> str:
    """The full reproduction report, as text."""
    tl = figures.timeline
    lines: list[str] = [
        "Dissecting Apple's Meta-CDN during an iOS Update — reproduction report",
        f"(release: {tl.datetime(figures.release):%Y-%m-%d %H:%M} UTC)",
    ]

    lines += _section("Figure 2 — request-mapping infrastructure")
    if figures.mapping is not None:
        lines.append(figures.mapping.render())
        lines.append(
            f"\navailability checks passed: {figures.availability * 100:.1f}%"
        )
    else:
        lines.append("(no AWS-VM measurements in this run)")

    lines += _section("Figure 3 / Table 1 — Apple CDN sites")
    lines.append(figures.sites.render())
    if figures.paths is not None:
        lines.append("")
        lines.append(figures.paths.render())
        median = figures.median_geolocation_error_km
        if median is not None:
            lines.append(
                f"min-RTT geolocation: {figures.geolocated} caches, "
                f"median error {median:.0f} km"
            )

    lines += _section("Figure 4 — unique cache IPs (worldwide probes)")
    if figures.spikes is not None:
        for continent, (peak, baseline) in figures.spikes.items():
            lines.append(
                f"    {continent.value:<16} pre-avg {baseline:7.1f}  "
                f"post-peak {peak:5d}  ratio {figures.spike_factor(continent):5.2f}x"
            )
    else:
        lines.append("(no global campaign measurements in this run)")

    lines += _section("Figure 5 — unique cache IPs (eyeball-ISP probes)")
    if figures.isp_series is not None:
        for point in figures.isp_series:
            counts = ", ".join(
                f"{name}={count}" for name, count in sorted(point.counts.items())
            )
            lines.append(
                f"    {tl.datetime(point.bin_start):%b %d %Hh}: "
                f"total={point.total:4d}  ({counts})"
            )
    else:
        lines.append("(no ISP campaign measurements in this run)")

    lines += _section("Figures 6-8 — ISP traffic: offload and overflow")
    if figures.offload is not None:
        lines.append(figures.offload.render())
        lines.append("")
        lines.append(figures.overflow.render(label_time=tl.date_label))
    else:
        lines.append("(no ISP traffic collected in this run)")

    analysis = figures.catchments
    if analysis is not None:
        lines += _section(
            "Steering ablation — anycast catchments "
            f"({figures.steering} mode)"
        )
        for site_id, share in sorted(
            analysis.peak_share_by_site.items(),
            key=lambda item: (-item[1], item[0]),
        )[:10]:
            lines.append(f"    {site_id:<12} peak share {share * 100:5.1f}%")
        lines.append("")
        lines.append(
            f"    {analysis.sites_live} sites live over {analysis.ticks} "
            f"ticks; {analysis.map_changes} catchment-map changes, "
            f"affinity-break rate {analysis.affinity_break_rate:.4f}"
        )
        lines.append(
            f"    shifted traffic {analysis.shifted_gbps_total:.0f} Gbps; "
            f"mapping distance {analysis.mapping_distance_km:.0f} km vs "
            f"nearest-site {analysis.nearest_distance_km:.0f} km "
            f"(anycast cost +{analysis.mapping_distance_delta_km:.0f} km)"
        )

    if figures.resolvers is not None:
        lines += _section(
            "Resolver populations — mapping accuracy through shared POP caches"
        )
        for row in figures.resolvers.render().splitlines():
            lines.append(f"    {row}")

    return "\n".join(lines)


def generate_report(scenario) -> str:
    """Measure a completed run and render its report."""
    return render(measure(scenario))
