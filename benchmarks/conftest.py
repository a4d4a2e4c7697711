"""Shared benchmark fixtures.

Two simulation runs are built once per session:

* ``bench_run`` — the Figure 4/7/8 window (Sep 12 - Sep 26) at bench
  scale: 160 global probes every 30 min (paper: 800 every 5 min),
  80 ISP probes every 12 h (paper: 400), ISP traffic Sep 15-23.
* ``fig5_run`` — the long ISP window (Sep 1 - Nov 10, hourly steps)
  for the Figure 5 series including the iOS 11.1 echo.

Every figure bench writes its regenerated rows to
``benchmarks/output/<figure>.txt`` so the reproduction is inspectable
after a run; EXPERIMENTS.md records paper-vs-measured from these.
"""

import pathlib

import pytest

from repro.isp import TrafficClassifier
from repro.simulation import ScenarioConfig, Sep2017Scenario, SimulationEngine
from repro.workload import TIMELINE

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


def write_output(name: str, text: str) -> None:
    """Persist one figure's regenerated rows."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / name).write_text(text + "\n")


@pytest.fixture(scope="session")
def bench_run():
    """The event-window run: scenario, engine, classified flows."""
    config = ScenarioConfig(
        global_probe_count=160,
        isp_probe_count=80,
        global_dns_interval=1800.0,
        isp_dns_interval=43200.0,
        traceroute_probe_count=16,
    )
    scenario = Sep2017Scenario(config)
    engine = SimulationEngine(scenario, step_seconds=1800.0)
    engine.run(TIMELINE.at(9, 12), TIMELINE.at(9, 26))
    classifier = TrafficClassifier(scenario.isp, scenario.rib, scenario.operator_of)
    classified = list(classifier.classify_all(scenario.netflow.records))
    return scenario, engine, classified


@pytest.fixture(scope="session")
def fig5_run():
    """The long ISP-campaign run (Figure 5)."""
    config = ScenarioConfig(
        global_probe_count=1,  # global campaign irrelevant here
        global_dns_interval=10 * 86400.0,
        isp_probe_count=80,
        isp_dns_interval=43200.0,
    )
    scenario = Sep2017Scenario(config)
    engine = SimulationEngine(scenario, step_seconds=3600.0)
    engine.run(TIMELINE.at(9, 1), TIMELINE.at(11, 10))
    return scenario, engine
