"""Engine integration: the two steering modes over the flash crowd.

Pins the headline guarantees: anycast bypasses the 15 s selection CNAME
entirely (all demand on Apple), a mid-event route withdrawal shifts
catchments, and the catchment log is bit-identical between serial and
sharded runs.
"""

import json

import pytest

from repro.faults import FaultKind, FaultSchedule, FaultWindow
from repro.simulation import ScenarioConfig, Sep2017Scenario, SimulationEngine
from repro.simulation.engine import RunSummary
from repro.workload import TIMELINE

START = TIMELINE.at(9, 18)
END = TIMELINE.at(9, 19)
SCALE = dict(global_probe_count=12, isp_probe_count=6)


def run(steering, workers=1, faults=None):
    scenario = Sep2017Scenario(
        ScenarioConfig(steering=steering, **SCALE), faults=faults
    )
    engine = SimulationEngine(scenario, step_seconds=3600.0)
    reports = []
    engine.run(START, END, progress=reports.append, workers=workers)
    return scenario, reports


def summarize(steering, **kwargs):
    scenario, reports = run(steering, **kwargs)
    return RunSummary.from_run(scenario, reports)


class TestSteeringModes:
    def test_dns_mode_has_no_plane(self):
        scenario, reports = run("dns")
        assert scenario.anycast is None
        summary = RunSummary.from_run(scenario, reports)
        assert "steering" not in summary.to_json_dict()

    def test_anycast_sends_everything_to_apple(self):
        scenario, reports = run("anycast")
        assert scenario.anycast is not None
        peaks = RunSummary.from_run(scenario, reports).peak_operator_gbps
        assert set(peaks) == {"Apple"}

    def test_summary_carries_catchments(self):
        payload = summarize("anycast").to_json_dict()
        assert payload["steering"] == "anycast"
        catchments = payload["catchments"]
        assert catchments["ticks"] == 24
        assert catchments["sites_live"] >= 2
        assert catchments["mapping_distance_delta_km"] >= 0.0

    def test_invalid_steering_rejected(self):
        with pytest.raises(ValueError):
            Sep2017Scenario(ScenarioConfig(steering="multicast", **SCALE))
        with pytest.raises(ValueError, match="unknown steering mode 'hybrid'"):
            Sep2017Scenario(ScenarioConfig(steering="hybrid", **SCALE))


class TestRouteFlapInEngine:
    def test_flap_shifts_and_reverts(self):
        probe = Sep2017Scenario(ScenarioConfig(steering="anycast", **SCALE))
        # Withdraw the busiest baseline site for two mid-window hours.
        top = max(
            probe.anycast.catchment_map(START).share_by_site().items(),
            key=lambda item: item[1],
        )[0]
        faults = FaultSchedule([
            FaultWindow(START + 6 * 3600.0, START + 8 * 3600.0, top,
                        FaultKind.ROUTE_WITHDRAW),
        ])
        scenario, _ = run("anycast", faults=faults)
        plane = scenario.anycast
        ticks = [tick for tick in plane.log if tick.broken_groups]
        assert len(ticks) == 2  # shift in, shift back
        assert all(tick.shifted_gbps > 0.0 for tick in ticks)
        # During the window the withdrawn site holds no catchment.
        during = plane.catchment_map(START + 7 * 3600.0)
        assert top not in during.share_by_site()
        # And the map after the window matches the one before it.
        before = plane.catchment_map(START)
        after = plane.catchment_map(START + 9 * 3600.0)
        assert after.signature == before.signature


class TestShardDeterminism:
    def test_catchment_log_identical_across_workers(self):
        serial, _ = run("anycast", workers=1)
        sharded, _ = run("anycast", workers=4)
        serial_log = [
            (tick.now, tick.signature, tick.broken_groups)
            for tick in serial.anycast.log
        ]
        sharded_log = [
            (tick.now, tick.signature, tick.broken_groups)
            for tick in sharded.anycast.log
        ]
        assert serial_log == sharded_log

    def test_summary_json_byte_identical_across_workers(self):
        faults = FaultSchedule([
            FaultWindow(START + 6 * 3600.0, START + 8 * 3600.0, "itmil-1",
                        FaultKind.ROUTE_WITHDRAW),
        ])
        serial = json.dumps(
            summarize("anycast", workers=1, faults=faults).to_json_dict(),
            sort_keys=True,
        )
        sharded = json.dumps(
            summarize("anycast", workers=4, faults=faults).to_json_dict(),
            sort_keys=True,
        )
        assert serial == sharded
