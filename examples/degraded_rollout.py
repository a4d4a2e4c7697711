#!/usr/bin/env python3
"""A degraded rollout: the handover CDN goes dark mid-surge.

The paper's Meta-CDN argument cuts both ways: delegation absorbs the
flash crowd, but it also means Apple's rollout now depends on a third
party staying up.  This example injects a total Limelight blackout one
hour after the iOS 11 release and watches the failover plane respond:

* the health-check loop marks Limelight unhealthy after K failed
  probes and re-steers the 15 s selection CNAME away from it;
* the EU operator split collapses Limelight to zero while the spill
  lands on Akamai and Apple;
* the ISP classifier attributes non-zero *overflow* bytes (source
  AS != handover AS, §5.1) to the CDN the traffic failed over to;
* once the blackout clears, half-open probes recover the member and
  the nominal split returns.

Run:  python examples/degraded_rollout.py
"""

from repro.faults import FaultKind, FaultSchedule, FaultWindow
from repro.isp.classify import TrafficClassifier
from repro.obs import EventTracer, MetricsRegistry, use_registry, use_tracer
from repro.simulation import ScenarioConfig, Sep2017Scenario
from repro.simulation.engine import SimulationEngine
from repro.workload import TIMELINE


def main() -> None:
    release = TIMELINE.ios_11_0_release
    fault_start = release + 3600.0
    fault_end = release + 6 * 3600.0
    schedule = FaultSchedule([
        FaultWindow(fault_start, fault_end, "Limelight", FaultKind.CDN_BLACKOUT)
    ])
    print("Degraded rollout: Limelight blackout, release+1h .. release+6h")
    print(f"schedule (seconds after release): "
          f"{schedule.shifted(-release).describe()}\n")

    tracer = EventTracer()
    with use_registry(MetricsRegistry()), use_tracer(tracer):
        scenario = Sep2017Scenario(
            ScenarioConfig(
                global_probe_count=32,
                isp_probe_count=16,
                traceroute_probe_count=2,
                fault_seed=7,
            ),
            faults=schedule,
        )
        engine = SimulationEngine(scenario, step_seconds=1800.0)
        reports = []
        engine.run(release - 1800.0, release + 8 * 3600.0,
                   progress=reports.append)

    def split(lo, hi):
        window = [r.operator_gbps for r in reports if lo <= r.now < hi]
        peaks = {}
        for gbps in window:
            for operator, value in gbps.items():
                peaks[operator] = max(peaks.get(operator, 0.0), value)
        return peaks

    phases = [
        ("pre-fault", release - 1800.0, fault_start),
        ("blackout (steady)", fault_start + 3600.0, fault_end),
        ("after recovery", fault_end + 3600.0, release + 8 * 3600.0),
    ]
    print("EU operator split, peak Gbps per phase:")
    operators = sorted({op for r in reports for op in r.operator_gbps})
    for label, lo, hi in phases:
        peaks = split(lo, hi)
        parts = "  ".join(
            f"{op} {peaks.get(op, 0.0):7.0f}" for op in operators
        )
        print(f"  {label:18s} {parts}")

    print("\nfailover timeline (hours after release):")
    for name in ("fault_opened", "cdn_unhealthy", "cdn_half_open",
                 "cdn_recovered", "fault_closed"):
        for record in tracer.find(name):
            hours = (record.ts - release) / 3600.0
            extra = ""
            if name == "cdn_unhealthy":
                extra = " — marked unhealthy, selection re-steers"
            elif name == "cdn_recovered":
                downtime = record.fields["downtime_seconds"] / 3600.0
                extra = f" — recovered after {downtime:.1f} h down"
            member = record.fields.get("member") or record.fields.get("target")
            print(f"  +{hours:5.2f} h  {name:14s} {member}{extra}")

    classifier = TrafficClassifier(scenario.isp, scenario.rib,
                                   scenario.operator_of)
    in_window = [f for f in scenario.netflow.records
                 if fault_start <= f.timestamp < fault_end]
    overflow = classifier.overflow_traffic(in_window, "Akamai")
    total = sum(c.flow.bytes for c in overflow)
    print(f"\noverflow to Akamai during the blackout: {total:,} bytes")
    print("(source AS != handover AS: the failed-over traffic the ISP "
          "classifier sees, exactly the §5.1 overflow definition)")


if __name__ == "__main__":
    main()
