"""Tests for the device-level micro-simulation.

The central claim: the operator split experienced by individual
handsets matches the fluid controller's dictate — the agent layer and
the aggregate layer are two views of the same mechanism.
"""

import pytest

from repro.net.geo import Continent, MappingRegion
from repro.simulation import MicroSimulation, ScenarioConfig, Sep2017Scenario, microsim
from repro.workload import TIMELINE


@pytest.fixture(scope="module")
def scenario():
    return Sep2017Scenario(
        ScenarioConfig(global_probe_count=1, isp_probe_count=1)
    )


def run_population(scenario, agents=120, demand=None, hours=8,
                   mean_adoption_delay=1800.0, seed=1):
    if demand is not None:
        scenario.estate.controller.observe_demand(MappingRegion.EU, demand)
    release = TIMELINE.ios_11_0_release
    try:
        sim = MicroSimulation(
            scenario,
            agent_count=agents,
            mean_adoption_delay=mean_adoption_delay,
            seed=seed,
        )
        return sim.run(
            release - 3600.0,
            release + hours * 3600.0,
            release_time=release,
            step_seconds=900.0,
        )
    finally:
        scenario.estate.controller.observe_demand(MappingRegion.EU, 0.0)


class TestMicroSimulation:
    def test_everyone_discovers_and_completes(self, scenario):
        stats = run_population(scenario)
        assert stats.discovered == stats.agents
        assert stats.downloads_completed == stats.agents
        assert stats.failed_resolutions == 0

    def test_polling_is_roughly_hourly(self, scenario):
        hours = 8
        stats = run_population(scenario, agents=50, hours=hours)
        # Each device polls ~once per hour until it starts downloading.
        assert stats.manifest_polls <= 50 * (hours + 2)
        assert stats.manifest_polls >= 50  # everyone polled at least once

    def test_idle_population_stays_on_apple_mostly(self, scenario):
        stats = run_population(scenario, demand=0.0, seed=2)
        ceiling = 1.0 - scenario.config.min_third_party_share
        assert stats.operator_share("Apple") == pytest.approx(ceiling, abs=0.12)

    def test_overloaded_population_split_matches_controller(self, scenario):
        scenario.estate.controller.observe_demand(MappingRegion.EU, 8000.0)
        expected = scenario.estate.controller.apple_share(MappingRegion.EU)
        stats = run_population(scenario, agents=200, demand=8000.0, seed=3)
        assert stats.operator_share("Apple") == pytest.approx(expected, abs=0.1)
        assert stats.operator_share("Limelight") > stats.operator_share("Akamai")

    def test_nobody_downloads_before_release(self, scenario):
        release = TIMELINE.ios_11_0_release
        sim = MicroSimulation(scenario, agent_count=30, seed=4)
        stats = sim.run(
            release - 6 * 3600.0,
            release - 3600.0,
            release_time=release,
            step_seconds=900.0,
        )
        assert stats.discovered == 0
        assert stats.downloads_completed == 0
        assert stats.manifest_polls > 0

    def test_adoption_delay_staggers_downloads(self, scenario):
        release = TIMELINE.ios_11_0_release
        sim = MicroSimulation(
            scenario, agent_count=80, mean_adoption_delay=3 * 3600.0, seed=5
        )
        sim.run(release, release + 10 * 3600.0, release_time=release,
                step_seconds=900.0)
        starts = sorted(
            agent.started_at for agent in sim.agents if agent.started_at
        )
        assert starts
        # Downloads spread over hours, not one thundering instant.
        assert starts[-1] - starts[0] > 2 * 3600.0

    def test_devices_end_up_updated(self, scenario):
        sim = MicroSimulation(scenario, agent_count=20, seed=6,
                              mean_adoption_delay=600.0)
        release = TIMELINE.ios_11_0_release
        sim.run(release, release + 4 * 3600.0, release_time=release)
        updated = [a for a in sim.agents if a.device.os_version == "11.0"]
        assert len(updated) == len([a for a in sim.agents if a.completed_at])

    def test_validation(self, scenario):
        with pytest.raises(ValueError):
            MicroSimulation(scenario, agent_count=0)
        sim = MicroSimulation(scenario, agent_count=1)
        with pytest.raises(ValueError):
            sim.run(10.0, 10.0, release_time=0.0)

    def test_continent_placement(self, scenario, monkeypatch):
        monkeypatch.setattr(microsim, "CONTINENT", Continent.NORTH_AMERICA)
        sim = MicroSimulation(scenario, agent_count=25, seed=7)
        assert all(
            agent.location.continent is Continent.NORTH_AMERICA
            for agent in sim.agents
        )
