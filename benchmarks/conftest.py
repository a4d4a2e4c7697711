"""Shared benchmark fixtures.

Two simulation runs are built once per session:

* ``bench_run`` — the Figure 4/7/8 window (Sep 12 - Sep 26) at bench
  scale: 160 global probes every 30 min (paper: 800 every 5 min),
  80 ISP probes every 12 h (paper: 400), ISP traffic Sep 15-23.
  ``bench_figures`` is its one :func:`~repro.analysis.report.measure`.
* ``fig5_figures`` — the long ISP window (Sep 1 - Nov 10, hourly
  steps), measured, for the Figure 5 series including the iOS 11.1
  echo.

The figure benches and the scoreboard print and assert from those
figure sets; none measures a figure again.  Every figure bench writes
its regenerated rows to
``benchmarks/output/<figure>.txt`` so the reproduction is inspectable
after a run; EXPERIMENTS.md records paper-vs-measured from these.
"""

import pathlib

import pytest

from repro.analysis.report import measure
from repro.simulation import ScenarioConfig, Sep2017Scenario, SimulationEngine
from repro.workload import TIMELINE

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


def write_output(name: str, text: str) -> None:
    """Persist one figure's regenerated rows."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / name).write_text(text + "\n")


@pytest.fixture(scope="session")
def bench_run():
    """The event-window run's scenario."""
    config = ScenarioConfig(
        global_probe_count=160,
        isp_probe_count=80,
        global_dns_interval=1800.0,
        isp_dns_interval=43200.0,
        traceroute_probe_count=16,
    )
    scenario = Sep2017Scenario(config)
    SimulationEngine(scenario, step_seconds=1800.0).run(
        TIMELINE.at(9, 12), TIMELINE.at(9, 26)
    )
    return scenario


@pytest.fixture(scope="session")
def bench_figures(bench_run):
    """Figures 2-8 of the event-window run."""
    return measure(bench_run)


@pytest.fixture(scope="session")
def fig5_figures():
    """The figures of the long ISP-campaign run (Figure 5)."""
    config = ScenarioConfig(
        global_probe_count=1,  # global campaign irrelevant here
        global_dns_interval=10 * 86400.0,
        isp_probe_count=80,
        isp_dns_interval=43200.0,
    )
    scenario = Sep2017Scenario(config)
    SimulationEngine(scenario, step_seconds=3600.0).run(
        TIMELINE.at(9, 1), TIMELINE.at(11, 10)
    )
    return measure(scenario)
