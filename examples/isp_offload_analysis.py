#!/usr/bin/env python3
"""An ISP operator's console: offload, overflow and link saturation.

Takes the eyeball-ISP perspective of Section 5: attributes the flow
records by Source AS and handover AS (the report's one pass over their
hourly roll-up), reports which peering links the update stressed, and
flags the saturated ones — the "seemingly unrelated links suddenly
saturate" finding.

Run:  python examples/isp_offload_analysis.py
"""

from repro.analysis.report import traffic_figures
from repro.simulation import ScenarioConfig, Sep2017Scenario, SimulationEngine
from repro.workload import TIMELINE


def main() -> None:
    scenario = Sep2017Scenario(
        ScenarioConfig(global_probe_count=20, isp_probe_count=20)
    )
    engine = SimulationEngine(scenario, step_seconds=1800.0)
    print("Collecting BGP/Netflow/SNMP at the ISP border, Sep 15 - Sep 23...")
    engine.run(TIMELINE.at(9, 15), TIMELINE.at(9, 23))
    print(f"    {len(scenario.rib)} BGP routes, "
          f"{len(scenario.netflow.records)} flow records, "
          f"{len(scenario.isp)} peering links\n")

    offload, _ = traffic_figures(scenario)

    # Traffic by Source-AS operator per day, off Figure 7's hourly series.
    print("Update-attributable traffic by CDN (TB per day):")
    daily: dict = {}
    for operator, hours in offload.series.items():
        for hour, volume in hours.items():
            per_day = daily.setdefault(TIMELINE.day_start(hour), {})
            per_day[operator] = per_day.get(operator, 0.0) + volume
    operators = sorted(offload.series)
    header = "    " + "date".ljust(10) + "".join(f"{op:>12}" for op in operators)
    print(header)
    for day, volumes in sorted(daily.items()):
        row = f"    {TIMELINE.date_label(day):<10}"
        row += "".join(f"{volumes.get(op, 0.0) / 1e12:>12.1f}" for op in operators)
        print(row)

    # Link utilisation report around the release evening.
    print("\nPeering-link peak utilisation, release day evening:")
    release = TIMELINE.ios_11_0_release
    for link in sorted(scenario.isp, key=lambda l: l.link_id):
        utilization = max(
            scenario.snmp.utilization(scenario.isp, link.link_id,
                                      release + hour * 3600.0)
            for hour in range(12)
        )
        if utilization == 0.0:
            continue
        bar = "#" * int(utilization * 30)
        flag = "  << SATURATED" if utilization >= 0.98 else ""
        print(f"    {link.link_id:<14} ({str(link.neighbor_asn):<8}) "
              f"{utilization * 100:5.1f}% {bar}{flag}")


if __name__ == "__main__":
    main()
