"""End-to-end failover in the simulation: a handover-CDN blackout must
show up as zero Limelight split during the fault and as overflow bytes
attributed to the CDN the traffic failed over to (§5.1 semantics)."""

import pytest

from repro.faults import FaultKind, FaultSchedule, FaultWindow
from repro.isp.classify import TrafficClassifier
from repro.obs import EventTracer, MetricsRegistry, use_registry, use_tracer
from repro.simulation.engine import SimulationEngine
from repro.simulation.scenario import ScenarioConfig, Sep2017Scenario
from repro.workload.timeline import TIMELINE

RELEASE = TIMELINE.ios_11_0_release
FAULT_START = RELEASE + 3600.0
FAULT_END = RELEASE + 6 * 3600.0
RUN_END = RELEASE + 8 * 3600.0


def _scenario_config():
    return ScenarioConfig(
        global_probe_count=32,
        isp_probe_count=16,
        traceroute_probe_count=2,
        fault_seed=7,
    )


def _run(faults):
    tracer = EventTracer()
    with use_registry(MetricsRegistry()), use_tracer(tracer):
        scenario = Sep2017Scenario(_scenario_config(), faults=faults)
        engine = SimulationEngine(scenario, step_seconds=1800.0)
        reports = []
        engine.run(RELEASE - 1800.0, RUN_END, progress=reports.append)
    return scenario, reports, tracer


@pytest.fixture(scope="module")
def blackout_run():
    schedule = FaultSchedule(
        [FaultWindow(FAULT_START, FAULT_END, "Limelight", FaultKind.CDN_BLACKOUT)]
    )
    return _run(schedule)


@pytest.fixture(scope="module")
def healthy_run():
    return _run(None)


def _limelight_peak(reports, lo, hi):
    return max(
        (r.operator_gbps.get("Limelight", 0.0) for r in reports if lo <= r.now < hi),
        default=0.0,
    )


class TestBlackoutFailover:
    def test_limelight_split_collapses_then_recovers(self, blackout_run):
        _scenario, reports, _tracer = blackout_run
        assert _limelight_peak(reports, RELEASE - 1800.0, FAULT_START) > 0.0
        # Judge the steady state one hour in: the health loop needs
        # k_failures probes before the selection step stops answering
        # Limelight.
        assert _limelight_peak(reports, FAULT_START + 3600.0, FAULT_END) == 0.0
        assert _limelight_peak(reports, FAULT_END + 3600.0, RUN_END) > 0.0

    def test_overflow_bytes_attributed_to_failover_target(self, blackout_run):
        scenario, _reports, _tracer = blackout_run
        classifier = TrafficClassifier(
            scenario.isp, scenario.rib, scenario.operator_of
        )
        in_window = [
            flow for flow in scenario.netflow.records
            if FAULT_START <= flow.timestamp < FAULT_END
        ]
        overflow = classifier.overflow_traffic(in_window, "Akamai")
        total = sum(c.flow.bytes for c in overflow)
        assert total > 0

    def test_health_events_traced(self, blackout_run):
        _scenario, _reports, tracer = blackout_run
        down = [r for r in tracer.find("cdn_unhealthy")
                if r.fields["member"] == "Limelight"]
        assert len(down) == 1
        assert FAULT_START <= down[0].ts < FAULT_START + 1800.0
        recovered = [r for r in tracer.find("cdn_recovered")
                     if r.fields["member"] == "Limelight"]
        assert len(recovered) == 1
        assert recovered[0].ts >= FAULT_END
        assert recovered[0].fields["downtime_seconds"] > 0

    def test_failover_loop_installed(self, blackout_run):
        scenario, _reports, _tracer = blackout_run
        assert scenario.faults is not None
        assert scenario.failover is not None
        assert scenario.estate.health is not None


class TestHealthyBaseline:
    def test_limelight_stays_up_mid_blackout_times(self, healthy_run):
        _scenario, reports, _tracer = healthy_run
        assert _limelight_peak(reports, FAULT_START + 3600.0, FAULT_END) > 0.0

    def test_zero_overhead_contract(self, healthy_run):
        scenario, _reports, tracer = healthy_run
        assert scenario.faults is None
        assert scenario.failover is None
        assert scenario.estate.health is None
        assert tracer.find("cdn_unhealthy") == []
        assert tracer.find("fault_opened") == []
