"""Integration tests: the instrumented engine against a real registry
and tracer, plus StepReport aggregation via RunSummary."""

import pytest

from repro.net.geo import MappingRegion
from repro.obs import (
    EventTracer,
    MetricsRegistry,
    parse_exposition,
    render_exposition,
    use_registry,
    use_tracer,
)
from repro.simulation import (
    RunSummary,
    ScenarioConfig,
    Sep2017Scenario,
    SimulationEngine,
    StepReport,
)
from repro.workload import TIMELINE


@pytest.fixture(scope="module")
def telemetry_run():
    """One instrumented release-day run, shared by the whole module."""
    registry = MetricsRegistry()
    tracer = EventTracer()
    with use_registry(registry), use_tracer(tracer):
        scenario = Sep2017Scenario(
            ScenarioConfig(global_probe_count=40, isp_probe_count=20)
        )
        engine = SimulationEngine(scenario, step_seconds=1800.0)
        reports = []
        engine.run(
            TIMELINE.at(9, 19), TIMELINE.at(9, 20), progress=reports.append
        )
    return registry, tracer, reports


class TestInstrumentedRun:
    def test_engine_metrics_recorded(self, telemetry_run):
        registry, _, reports = telemetry_run
        assert registry.get("engine_steps_total").value == len(reports)
        wall = registry.get("engine_step_wall_seconds").labels()
        assert wall.count == len(reports)
        assert wall.sum > 0.0
        assert registry.get("engine_demand_gbps").labels("eu").value > 0.0

    def test_dns_metrics_recorded(self, telemetry_run):
        registry, _, _ = telemetry_run
        queries = registry.get("dns_queries_total")
        operators = {labels[0] for labels, _ in queries.children()}
        assert "Apple" in operators
        chain = registry.get("dns_cname_chain_length").labels()
        assert chain.count > 0
        assert chain.mean >= 2.0  # the Figure 2 chain is never one hop

    def test_isp_and_cache_metrics_recorded(self, telemetry_run):
        registry, _, _ = telemetry_run
        assert registry.get("netflow_records_total").value > 0
        snmp_links = {
            labels[0] for labels, _ in registry.get("snmp_bytes_total").children()
        }
        assert "transit-d-1" in snmp_links
        assert registry.get("cache_requests_total") is not None
        assert registry.get("atlas_measurements_total").labels(
            "ripe-global"
        ).value > 0

    def test_offload_and_saturation_events(self, telemetry_run):
        _, tracer, _ = telemetry_run
        engaged = tracer.first("offload_engaged")
        assert engaged is not None
        assert engaged.fields["region"] == "eu"
        saturated = tracer.find("link_saturated")
        assert saturated
        assert all(r.fields["utilization"] >= 0.98 for r in saturated)

    def test_release_and_rollout_events(self, telemetry_run):
        _, tracer, _ = telemetry_run
        release = tracer.first("release")
        assert release is not None
        assert release.fields["version"] == "ios-11.0"
        rollout = tracer.first("cname_rollout")
        assert rollout is not None
        # the a1015 CNAME lands six hours after release
        assert rollout.ts >= TIMELINE.ios_11_0_release + 6 * 3600 - 1800

    def test_event_ordering_matches_the_paper(self, telemetry_run):
        _, tracer, _ = telemetry_run
        release = tracer.first("release")
        engaged = tracer.first("offload_engaged")
        saturated = tracer.first("link_saturated")
        assert release.ts <= engaged.ts <= saturated.ts

    def test_step_spans_nest_the_substeps(self, telemetry_run):
        _, tracer, _ = telemetry_run
        steps = tracer.find("engine.step")
        assert steps
        step_ids = {r.span_id for r in steps}
        inner = tracer.find("engine.isp_traffic")
        assert inner and all(r.parent_id in step_ids for r in inner)

    def test_exposition_round_trip(self, telemetry_run):
        registry, _, reports = telemetry_run
        families = parse_exposition(render_exposition(registry))
        assert families["engine_steps_total"].value() == len(reports)
        wall = families["engine_step_wall_seconds"]
        assert wall.samples["engine_step_wall_seconds_count", ()] == len(reports)


def _report(now, eu_demand, apple, akamai, measurements=0, flows=0):
    return StepReport(
        now=now,
        demand_gbps={MappingRegion.EU: eu_demand, MappingRegion.US: 1.0},
        operator_gbps={"Apple": apple, "Akamai": akamai},
        measurements=measurements,
        flows=flows,
    )


class TestRunSummary:
    def test_empty_stream(self):
        summary = RunSummary.from_reports([])
        assert summary.steps == 0
        assert summary.first_ts is None
        assert summary.last_ts is None
        assert summary.peak_demand_gbps == {}

    def test_aggregation(self):
        summary = RunSummary.from_reports([
            _report(0.0, 100.0, 80.0, 20.0, measurements=5, flows=2),
            _report(900.0, 300.0, 150.0, 150.0, measurements=7, flows=4),
            _report(1800.0, 200.0, 120.0, 80.0, measurements=1, flows=1),
        ])
        assert summary.steps == 3
        assert summary.first_ts == 0.0
        assert summary.last_ts == 1800.0
        assert summary.measurements == 13
        assert summary.flows == 7
        assert summary.peak_demand_gbps[MappingRegion.EU] == 300.0
        assert summary.peak_operator_gbps == {"Apple": 150.0, "Akamai": 150.0}

    def test_matches_real_run(self, telemetry_run):
        _, _, reports = telemetry_run
        summary = RunSummary.from_reports(reports)
        assert summary.steps == len(reports)
        assert summary.first_ts == reports[0].now
        assert summary.last_ts == reports[-1].now
        assert summary.measurements == sum(r.measurements for r in reports)
        assert summary.peak_demand_gbps[MappingRegion.EU] == max(
            r.demand_gbps[MappingRegion.EU] for r in reports
        )


class TestDisabledTelemetry:
    def test_null_handles_record_nothing(self):
        scenario = Sep2017Scenario(
            ScenarioConfig(global_probe_count=2, isp_probe_count=2)
        )
        engine = SimulationEngine(scenario, step_seconds=3600.0)
        engine.run(TIMELINE.at(9, 19), TIMELINE.at(9, 19) + 2 * 3600.0)
        assert not engine._obs.enabled

    def test_explicit_handles_win_over_default(self):
        registry = MetricsRegistry()
        tracer = EventTracer()
        scenario = Sep2017Scenario(
            ScenarioConfig(global_probe_count=2, isp_probe_count=2)
        )
        engine = SimulationEngine(
            scenario, step_seconds=3600.0, metrics=registry, tracer=tracer
        )
        engine.advance(TIMELINE.at(9, 19))
        assert registry.get("engine_steps_total").value == 1
        assert tracer.find("engine.step")
