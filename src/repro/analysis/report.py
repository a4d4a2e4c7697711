"""One-shot paper report: every reproduced result in a single document.

:func:`generate_report` takes a completed scenario run and assembles
the regenerated Figures 2-8, Table 1 facts, and the ablation-relevant
headline numbers into one text report — the artifact a replication
study would attach.  The CLI (``python -m repro report``) and the
``examples/`` scripts use it.
"""

from __future__ import annotations

from typing import Optional

from ..isp.classify import TrafficClassifier
from ..net.geo import Continent
from ..workload.timeline import Timeline
from .categories import CdnCategorizer
from .mapping_graph import MappingGraph
from .offload import summarize_offload
from .overflow import summarize_overflow
from .paths import geolocate_caches, geolocation_errors_km, summarize_paths
from .sites import discover_sites
from .unique_ips import peak_vs_baseline, series_by_continent, unique_ip_series

__all__ = ["generate_report"]

_RULE = "=" * 72


def _section(title: str) -> list[str]:
    return ["", _RULE, title, _RULE, ""]


def generate_report(scenario, timeline: Optional[Timeline] = None) -> str:
    """Build the full reproduction report from a completed run.

    ``scenario`` is a :class:`~repro.simulation.scenario.Sep2017Scenario`
    whose engine has been run across (at least) the event window.
    """
    tl = timeline if timeline is not None else scenario.timeline
    release = tl.ios_11_0_release
    lines: list[str] = [
        "Dissecting Apple's Meta-CDN during an iOS Update — reproduction report",
        f"(release: {tl.datetime(release):%Y-%m-%d %H:%M} UTC)",
    ]

    # --- Figure 2: mapping graph from the AWS-VM campaign ---------------
    lines += _section("Figure 2 — request-mapping infrastructure")
    resolutions = scenario.aws_campaign.resolutions()
    if resolutions:
        graph = MappingGraph.from_resolutions(resolutions)
        lines.append(graph.render())
        lines.append(
            f"\navailability checks passed: "
            f"{scenario.aws_campaign.availability_ratio() * 100:.1f}%"
        )
    else:
        lines.append("(no AWS-VM measurements in this run)")

    # --- Figure 3 / Table 1: site discovery ------------------------------
    lines += _section("Figure 3 / Table 1 — Apple CDN sites")
    discovery = discover_sites(scenario.estate.apple.reverse_dns_table())
    lines.append(discovery.render())
    traces = scenario.traceroute_campaign.store.traceroute_columns
    if len(traces):
        estimates = geolocate_caches(traces, scenario.global_probes)
        truth = {
            placed.server.address: placed.location.coordinates
            for deployment in scenario.estate.deployments.values()
            for placed in deployment.servers
        }
        errors = geolocation_errors_km(estimates, truth)
        lines.append("")
        lines.append(summarize_paths(traces).render())
        if errors:
            lines.append(
                f"min-RTT geolocation: {len(estimates)} caches, "
                f"median error {errors[len(errors) // 2]:.0f} km"
            )

    # --- Figure 4: global unique IPs --------------------------------------
    lines += _section("Figure 4 — unique cache IPs (worldwide probes)")
    categorizer = CdnCategorizer(scenario.estate.deployments)
    global_store = scenario.global_campaign.store
    if global_store.dns_count:
        # One streaming pass over the columnar store builds every
        # continent facet (the old code rescanned a full history copy
        # once per continent).
        facets = series_by_continent(global_store, categorizer.category, 7200.0)
        for continent in Continent:
            series = facets[continent]
            if not series:
                continue
            peak, baseline = peak_vs_baseline(series, release)
            ratio = peak / baseline if baseline else 0.0
            lines.append(
                f"    {continent.value:<16} pre-avg {baseline:7.1f}  "
                f"post-peak {peak:5d}  ratio {ratio:5.2f}x"
            )
    else:
        lines.append("(no global campaign measurements in this run)")

    # --- Figure 5: ISP unique IPs -----------------------------------------
    lines += _section("Figure 5 — unique cache IPs (eyeball-ISP probes)")
    isp_store = scenario.isp_campaign.store
    if isp_store.dns_count:
        series = unique_ip_series(isp_store, categorizer.category, 43200.0)
        for point in series:
            counts = ", ".join(
                f"{name}={count}" for name, count in sorted(point.counts.items())
            )
            lines.append(
                f"    {tl.datetime(point.bin_start):%b %d %Hh}: "
                f"total={point.total:4d}  ({counts})"
            )
    else:
        lines.append("(no ISP campaign measurements in this run)")

    # --- Figures 6-8: the ISP traffic view ---------------------------------
    lines += _section("Figures 6-8 — ISP traffic: offload and overflow")
    records = scenario.netflow.records
    if records:
        classifier = TrafficClassifier(
            scenario.isp, scenario.rib, scenario.operator_of
        )
        # The hourly roll-up, not every flow: Figures 7 and 8 bin on
        # 3 600 s and 21 600 s, whole multiples of it, so the sums are
        # the same (see ``FlowLog.rollup``).
        classified = list(classifier.classify_all(records.rollup(3600.0)))
        lines.append(summarize_offload(classified, tl.day_start(release)).render())
        lines.append("")
        from ..simulation.scenario import AS_TRANSIT_D

        overflow = summarize_overflow(
            classified,
            new_as=AS_TRANSIT_D,
            isp=scenario.isp,
            snmp=scenario.snmp,
            peak_probe_times=[release + hour * 3600.0 for hour in range(48)],
        )
        lines.append(overflow.render(label_time=tl.date_label))
    else:
        lines.append("(no ISP traffic collected in this run)")

    # --- Steering ablation: anycast catchments (beyond the paper) ---------
    plane = scenario.anycast
    if plane is not None:
        from ..anycast import CatchmentAnalysis

        analysis = CatchmentAnalysis.from_plane(plane)
        lines += _section(
            "Steering ablation — anycast catchments "
            f"({scenario.config.steering} mode)"
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

    # --- Resolver populations: mapping accuracy (beyond the paper) --------
    if scenario.resolver_plane is not None:
        from .resolver_accuracy import ResolverAccuracy

        accuracy = ResolverAccuracy.from_scenario(scenario)
        lines += _section(
            "Resolver populations — mapping accuracy through shared POP caches"
        )
        for row in accuracy.render().splitlines():
            lines.append(f"    {row}")

    return "\n".join(lines)
