"""Tests for repro.simulation.engine — the end-to-end event dynamics.

These are the integration tests that check the paper's *mechanisms*
emerge from the simulation: Apple-first offload, exposure growth,
overflow via the AS-D cluster, link saturation.
"""

import pytest

from repro.net.geo import MappingRegion
from repro.net.ipv4 import IPv4Prefix
from repro.simulation import (
    AS_TRANSIT_D,
    ScenarioConfig,
    Sep2017Scenario,
    SimulationEngine,
)
from repro.simulation.scenario import EXPOSURE_MIN_SERVERS
from repro.workload import TIMELINE

CLUSTER_PREFIX = IPv4Prefix.parse("208.111.160.0/19")


class TestEngineBasics:
    def test_run_step_count(self):
        scenario = Sep2017Scenario(
            ScenarioConfig(global_probe_count=5, isp_probe_count=5)
        )
        engine = SimulationEngine(scenario, step_seconds=3600.0)
        steps = engine.run(TIMELINE.at(9, 1), TIMELINE.at(9, 2))
        assert steps == 24

    def test_invalid_args(self):
        scenario = Sep2017Scenario(
            ScenarioConfig(global_probe_count=5, isp_probe_count=5)
        )
        with pytest.raises(ValueError):
            SimulationEngine(scenario, step_seconds=0.0)
        engine = SimulationEngine(scenario)
        with pytest.raises(ValueError):
            engine.run(10.0, 10.0)

    def test_operator_split_sums_to_demand(self):
        scenario = Sep2017Scenario(
            ScenarioConfig(global_probe_count=5, isp_probe_count=5)
        )
        engine = SimulationEngine(scenario)
        now = TIMELINE.at(9, 19, 20)
        demand = scenario.demand.demand_gbps(MappingRegion.EU, now)
        scenario.estate.controller.observe_demand(MappingRegion.EU, demand)
        split = engine.operator_split(MappingRegion.EU, now, demand)
        assert sum(split.values()) == pytest.approx(demand)
        assert split["Apple"] > 0

    def test_no_isp_flows_outside_window(self):
        scenario = Sep2017Scenario(
            ScenarioConfig(global_probe_count=5, isp_probe_count=5)
        )
        engine = SimulationEngine(scenario, step_seconds=3600.0)
        engine.run(TIMELINE.at(9, 1), TIMELINE.at(9, 2))  # before Sep 15
        assert len(scenario.netflow.records) == 0


class TestEventDynamics:
    """Against the shared Sep 15-23 run (see conftest.event_run)."""

    def test_measurements_collected(self, event_run):
        scenario, _, _ = event_run
        assert len(scenario.global_campaign.store.dns) > 0
        assert len(scenario.isp_campaign.store.dns) > 0

    def test_apple_first_before_release(self, event_run):
        scenario, engine, _ = event_run
        # Rebuild the split at a quiet pre-release instant.
        now = TIMELINE.at(9, 16, 12)
        demand = scenario.demand.demand_gbps(MappingRegion.EU, now)
        scenario.estate.controller.observe_demand(MappingRegion.EU, demand)
        split = engine.operator_split(MappingRegion.EU, now, demand)
        ceiling = 1.0 - scenario.config.min_third_party_share
        assert split["Apple"] / demand == pytest.approx(ceiling, abs=0.01)

    def test_offload_grows_at_event_peak(self, event_run):
        scenario, engine, _ = event_run
        now = TIMELINE.at(9, 19, 19)
        demand = scenario.demand.demand_gbps(MappingRegion.EU, now)
        scenario.estate.controller.observe_demand(MappingRegion.EU, demand)
        split = engine.operator_split(MappingRegion.EU, now, demand)
        apple_share = split["Apple"] / demand
        assert apple_share < 1.0 - scenario.config.min_third_party_share
        assert split.get("Limelight", 0) > 0
        assert split.get("Akamai", 0) > 0

    def test_flows_were_generated_in_window(self, event_run):
        scenario, _, _ = event_run
        records = scenario.netflow.records
        assert records
        window = scenario.traffic_window
        assert all(window.contains(r.timestamp) for r in records)

    def test_cluster_sources_appear_only_during_event(self, event_run):
        scenario, _, _ = event_run
        release = TIMELINE.ios_11_0_release
        before = {
            r.src
            for r in scenario.netflow.records
            if r.timestamp < release and CLUSTER_PREFIX.contains(r.src)
        }
        after = {
            r.src
            for r in scenario.netflow.records
            if r.timestamp >= release and CLUSTER_PREFIX.contains(r.src)
        }
        assert not before
        assert after

    def test_as_d_links_saturate_at_peak(self, event_run):
        scenario, _, _ = event_run
        utilizations = []
        for hour in range(0, 48):
            probe_time = TIMELINE.ios_11_0_release + hour * 3600.0
            for link in ("transit-d-1", "transit-d-2"):
                utilizations.append(
                    scenario.snmp.utilization(scenario.isp, link, probe_time)
                )
        assert max(utilizations) >= 0.9

    def test_unused_as_d_links_stay_idle(self, event_run):
        scenario, _, _ = event_run
        for link in ("transit-d-3", "transit-d-4"):
            assert scenario.snmp.series(link) == []

    def test_snmp_matches_netflow_in_exact_mode(self, event_run):
        scenario, _, _ = event_run
        snmp_total = sum(
            volume
            for link in scenario.snmp.links()
            for _, volume in scenario.snmp.series(link)
        )
        assert snmp_total == pytest.approx(scenario.netflow.sampled_bytes(), rel=1e-6)

    def test_limelight_exposure_grew(self, event_run):
        scenario, _, _ = event_run
        # After the run (post-event decay) the active set may have
        # shrunk, but the unique sources over time show the growth.
        limelight_sources = {
            r.src
            for r in scenario.netflow.records
            if scenario.operator_of(r.src) == "Limelight"
        }
        assert len(limelight_sources) > EXPOSURE_MIN_SERVERS


class TestStepReports:
    def test_progress_callback_receives_reports(self):
        from repro.simulation.engine import StepReport

        scenario = Sep2017Scenario(
            ScenarioConfig(global_probe_count=3, isp_probe_count=3)
        )
        engine = SimulationEngine(scenario, step_seconds=3600.0)
        reports = []
        engine.run(TIMELINE.at(9, 19, 16), TIMELINE.at(9, 19, 20),
                   progress=reports.append)
        assert len(reports) == 4
        assert all(isinstance(report, StepReport) for report in reports)
        # Time advances monotonically by the step.
        times = [report.now for report in reports]
        assert times == sorted(times)
        assert times[1] - times[0] == 3600.0

    def test_report_demand_covers_all_regions(self):
        scenario = Sep2017Scenario(
            ScenarioConfig(global_probe_count=3, isp_probe_count=3)
        )
        engine = SimulationEngine(scenario, step_seconds=3600.0)
        report = engine.advance(TIMELINE.at(9, 19, 18))
        assert set(report.demand_gbps) == set(MappingRegion)
        assert all(demand >= 0 for demand in report.demand_gbps.values())
        assert "Apple" in report.operator_gbps

    def test_release_step_reports_surge(self):
        scenario = Sep2017Scenario(
            ScenarioConfig(global_probe_count=3, isp_probe_count=3)
        )
        engine = SimulationEngine(scenario, step_seconds=3600.0)
        quiet = engine.advance(TIMELINE.at(9, 16, 12))
        surge = engine.advance(TIMELINE.at(9, 19, 20))
        assert surge.demand_gbps[MappingRegion.EU] > (
            2 * quiet.demand_gbps[MappingRegion.EU]
        )
