"""Sharded execution must be invisible in the outputs.

Three properties, per the sharding contract in
``repro.simulation.concurrency``:

* a ``workers=4`` run reproduces the ``workers=1`` run exactly —
  same measurement stores (records and segment bytes), Netflow log,
  SNMP bins, StepReports and ``RunSummary`` aggregates;
* two ``workers=4`` runs agree with each other (no scheduling
  nondeterminism leaks into the merge);
* merged worker metrics equal the serial run's totals for every
  deterministic family.
"""

import pytest

from repro.obs import MetricsRegistry, use_registry
from repro.simulation.concurrency import WORKER_METRIC_FAMILIES
from repro.simulation.engine import RunSummary, SimulationEngine
from repro.simulation.scenario import ScenarioConfig, Sep2017Scenario
from repro.workload import TIMELINE

START, END = TIMELINE.at(9, 18), TIMELINE.at(9, 20)

# Wall-clock timing histograms differ between any two runs (serial or
# not); everything else in the registry is deterministic.
WALL_CLOCK_FAMILIES = frozenset(
    {"engine_step_wall_seconds", "engine_phase_seconds"}
)


def run_once(workers: int):
    registry = MetricsRegistry()
    with use_registry(registry):
        # Small segments, so the global store seals mid-tick.
        config = ScenarioConfig(
            global_probe_count=24, isp_probe_count=12, traceroute_probe_count=4,
            store_segment_rows=500,
        )
        scenario = Sep2017Scenario(config)
        engine = SimulationEngine(scenario, step_seconds=1800.0)
        reports = []
        engine.run(START, END, progress=reports.append, workers=workers)
    metrics = {
        name: family
        for name, family in registry.snapshot().items()
        if name not in WALL_CLOCK_FAMILIES
    }
    return scenario, reports, metrics


@pytest.fixture(scope="module")
def serial_run():
    return run_once(workers=1)


@pytest.fixture(scope="module")
def parallel_run():
    return run_once(workers=4)


def assert_same_world(left, right):
    scenario_l, reports_l, metrics_l = left
    scenario_r, reports_r, metrics_r = right
    assert reports_l == reports_r
    assert (
        scenario_l.global_campaign.store.dns
        == scenario_r.global_campaign.store.dns
    )
    assert scenario_l.isp_campaign.store.dns == scenario_r.isp_campaign.store.dns
    # Records compare equal under another intern order or seal point;
    # the bytes do not: segment payloads, open block, unique values.
    for campaign_l, campaign_r in zip(
        scenario_l.dns_campaigns, scenario_r.dns_campaigns
    ):
        assert campaign_l.store.dump_state() == campaign_r.store.dump_state()
    assert (
        scenario_l.traceroute_campaign.store.traceroutes
        == scenario_r.traceroute_campaign.store.traceroutes
    )
    assert scenario_l.netflow.records == scenario_r.netflow.records
    assert scenario_l.snmp.snapshot_bins() == scenario_r.snmp.snapshot_bins()
    summary_l = RunSummary.from_run(scenario_l, reports_l)
    summary_r = RunSummary.from_run(scenario_r, reports_r)
    assert summary_l.to_json_dict() == summary_r.to_json_dict()
    return metrics_l, metrics_r


def test_parallel_matches_serial(serial_run, parallel_run):
    metrics_serial, metrics_parallel = assert_same_world(
        serial_run, parallel_run
    )
    # The merged registry must agree family by family — this is the
    # check that worker-side metric ownership is exact (nothing double
    # counted, nothing dropped).
    assert set(metrics_serial) == set(metrics_parallel)
    for name in sorted(metrics_serial):
        assert metrics_serial[name] == metrics_parallel[name], name


def test_parallel_is_reproducible(parallel_run):
    second = run_once(workers=4)
    metrics_first, metrics_second = assert_same_world(parallel_run, second)
    assert metrics_first == metrics_second


def test_worker_families_survive_the_merge(serial_run, parallel_run):
    # The families generated inside workers must be present after the
    # merge with non-zero totals — guards against silently dropping the
    # shipped snapshots (equality above would pass if both were empty).
    _, _, metrics = parallel_run
    for name in ("dns_queries_total", "netflow_records_total"):
        assert name in WORKER_METRIC_FAMILIES
        family = metrics[name]
        total = sum(child for child in family["children"].values())
        assert total > 0, name
