#!/usr/bin/env python3
"""The iOS 11 release, end to end (Sections 4 and 5).

Runs the September 2017 scenario through the release week at a small
scale, then prints the Figure 4 unique-IP series for Europe, the
Figure 7 offload summary and the Figure 8 overflow shares.

Run:  python examples/ios_update_event.py
"""

from repro.analysis import CdnCategorizer, peak_vs_baseline, unique_ip_series
from repro.analysis.report import traffic_figures
from repro.net import Continent
from repro.simulation import (
    AS_TRANSIT_D,
    ScenarioConfig,
    Sep2017Scenario,
    SimulationEngine,
)
from repro.workload import TIMELINE


def main() -> None:
    config = ScenarioConfig(
        global_probe_count=80,
        isp_probe_count=40,
        global_dns_interval=3600.0,
    )
    scenario = Sep2017Scenario(config)
    engine = SimulationEngine(scenario, step_seconds=1800.0)

    print("Simulating Sep 15 - Sep 23, 2017 (release Sep 19, 17h UTC)...")
    steps = engine.run(TIMELINE.at(9, 15), TIMELINE.at(9, 23))
    print(f"    {steps} steps, "
          f"{scenario.global_campaign.store.dns_count} global DNS measurements, "
          f"{len(scenario.netflow.records)} flow records\n")

    # Figure 4 (Europe facet): unique cache IPs around the release.
    # Passing the store itself streams the aggregation over its
    # columnar segments instead of reconstructing every record.
    categorizer = CdnCategorizer(scenario.estate.deployments)
    series = unique_ip_series(
        scenario.global_campaign.store,
        categorizer.category,
        bin_seconds=7200.0,
        continent=Continent.EUROPE,
    )
    release = TIMELINE.ios_11_0_release
    peak, baseline = peak_vs_baseline(series, release)
    print("Figure 4 (Europe): unique cache IPs")
    print(f"    pre-event average {baseline:.0f}, post-release peak {peak} "
          f"({peak / baseline:.1f}x; the paper saw 977 vs 191)\n")

    # Figures 7 and 8: the ISP's view, folded off the hourly roll-up of
    # the flow log the way the report does (no object per flow).
    offload, overflow = traffic_figures(scenario)
    print(offload.render())
    print()
    print("Figure 8: Limelight overflow by handover AS (6-hour bins)")
    for bin_start, shares in overflow.series:
        row = ", ".join(
            f"{asn}={share * 100:.0f}%"
            for asn, share in sorted(shares.items(), key=lambda kv: -kv[1])
        )
        print(f"    {TIMELINE.datetime(bin_start):%b %d %Hh}: {row}")
    print(f"\n    (AS D of the paper is {AS_TRANSIT_D} here)")


if __name__ == "__main__":
    main()
