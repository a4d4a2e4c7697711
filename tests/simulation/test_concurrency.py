"""Unit tests for the sharding machinery itself.

The end-to-end equivalence lives in ``test_parallel_determinism``;
these pin the pieces: shard planning covers every probe exactly once
and equals the table generated before the shard fields were renamed,
specs survive pickling, the digest detects state drift, and the engine
clock is injectable.
"""

import json
import pickle
from pathlib import Path

import pytest

from repro.net.geo import MappingRegion
from repro.obs import MetricsRegistry, snapshot_delta
from repro.simulation.concurrency import (
    EngineSpec,
    Shard,
    ShardDivergenceError,
    plan_shards,
    run_sharded,
    state_digest,
)
from repro.simulation.engine import SimulationEngine
from repro.simulation.scenario import ScenarioConfig, Sep2017Scenario
from repro.workload import TIMELINE


@pytest.fixture(scope="module")
def small_engine():
    config = ScenarioConfig(
        global_probe_count=24, isp_probe_count=12, traceroute_probe_count=4
    )
    return SimulationEngine(Sep2017Scenario(config), step_seconds=1800.0)


# ----------------------------------------------------------------------
# shard planning
# ----------------------------------------------------------------------


def partition_of(plan, name):
    indices = []
    for shard in plan:
        indices.extend(shard.indices[name])
    return indices


@pytest.mark.parametrize("workers", [2, 3, 4, 8])
def test_plan_covers_every_probe_exactly_once(small_engine, workers):
    plan = plan_shards(small_engine, workers)
    scenario = small_engine.scenario
    assert sorted(partition_of(plan, "ripe-global")) == list(
        range(len(scenario.global_campaign.probes))
    )
    assert sorted(partition_of(plan, "ripe-isp")) == list(
        range(len(scenario.isp_campaign.probes))
    )
    assert sum(shard.owns_traffic for shard in plan) == 1
    assert 1 <= len(plan) <= workers


# Generated at the parent commit (Shard.global_indices / isp_indices /
# owns_traffic / weight, per shard, from plan_shards): the proof that
# keying the fields by campaign name moved no probe.
PARENT_PLANS = json.loads(
    (Path(__file__).parent / "golden" / "shard_plans.json").read_text()
)


@pytest.mark.parametrize("probes, isp_probes, step", [
    (24, 12, 1800.0), (160, 80, 300.0), (160, 80, 1800.0),
])
def test_plans_equal_the_parent_commits(probes, isp_probes, step):
    config = ScenarioConfig(global_probe_count=probes, isp_probe_count=isp_probes)
    engine = SimulationEngine(Sep2017Scenario(config), step_seconds=step)
    for workers in (2, 3, 4, 8):
        plan = [
            {
                **{name: list(positions) for name, positions in shard.indices.items()},
                "owns_traffic": shard.owns_traffic,
                "weight": shard.weight,
            }
            for shard in plan_shards(engine, workers)
        ]
        assert plan == PARENT_PLANS[f"{probes}/{isp_probes}/{int(step)}/{workers}"]


def test_plan_is_deterministic(small_engine):
    assert plan_shards(small_engine, 4) == plan_shards(small_engine, 4)


def test_plan_balances_load(small_engine):
    plan = plan_shards(small_engine, 4)
    weights = [shard.weight for shard in plan]
    # At 24 probes the indivisible ISP-traffic unit outweighs a fair
    # share on its own: its shard carries no global probes, and the
    # probe shards balance among themselves.
    assert Shard.traffic_weight > sum(weights) / len(weights)
    (traffic,) = [shard for shard in plan if shard.owns_traffic]
    assert not traffic.indices["ripe-global"]
    others = [shard.weight for shard in plan if not shard.owns_traffic]
    assert max(others) <= 2 * max(1, min(others))


def test_isp_probes_weigh_by_how_often_they_fire(small_engine):
    plan = plan_shards(small_engine, 2)
    # 1800 s step and global interval, 43200 s ISP interval.
    assert {shard.rates["ripe-global"] for shard in plan} == {1.0}
    assert {shard.rates["ripe-isp"] for shard in plan} == {1800.0 / 43200.0}
    probes_only = Shard(
        shard_id=0,
        indices={"ripe-global": (0, 1), "ripe-isp": tuple(range(24))},
        rates={"ripe-global": 1.0, "ripe-isp": 1800.0 / 43200.0},
    )
    assert probes_only.weight == pytest.approx(3.0)


@pytest.mark.parametrize("workers", [2, 4])
def test_ledger_config_has_no_dominant_shard(workers):
    """The perf ledger's replay (160/80 probes, 5-min cadence).

    Weighing 12-hourly ISP probes like per-tick global ones put one
    worker at ~3x the other's busy time there; with probes weighed by
    firing rate no shard's predicted load exceeds 60 % of the total.
    """
    config = ScenarioConfig(global_dns_interval=300.0, traceroute_probe_count=16)
    assert (config.global_probe_count, config.isp_probe_count) == (160, 80)
    engine = SimulationEngine(Sep2017Scenario(config), step_seconds=300.0)
    plan = plan_shards(engine, workers)
    weights = [shard.weight for shard in plan]
    assert len(weights) == workers
    assert max(weights) <= 0.6 * sum(weights)
    assert sum(weights) == pytest.approx(160 + 80 * 300.0 / 43200.0 + Shard.traffic_weight)


def test_plan_rejects_zero_workers(small_engine):
    with pytest.raises(ValueError):
        plan_shards(small_engine, 0)


# ----------------------------------------------------------------------
# digest + spec
# ----------------------------------------------------------------------


def test_state_digest_reacts_to_any_drift():
    demand = {MappingRegion.EU: 100.0, MappingRegion.US: 200.0}
    split = {"Apple": 60.0, "Akamai": 40.0}
    base = state_digest(0.0, demand, split)
    assert base == state_digest(0.0, dict(demand), dict(split))
    assert base != state_digest(1800.0, demand, split)
    assert base != state_digest(0.0, {**demand, MappingRegion.EU: 100.1}, split)
    assert base != state_digest(0.0, demand, {**split, "Apple": 59.9})


def test_engine_spec_round_trips_through_pickle(small_engine):
    spec = EngineSpec.from_engine(small_engine)
    clone = pickle.loads(pickle.dumps(spec))
    # Timeline compares by identity, so check the fields that matter.
    assert clone.config == spec.config
    assert clone.scenario_class is spec.scenario_class
    assert clone.step_seconds == spec.step_seconds
    assert (
        clone.timeline.ios_11_0_release == spec.timeline.ios_11_0_release
    )
    replica = clone.build()
    assert replica.step_seconds == small_engine.step_seconds
    assert (
        len(replica.scenario.global_campaign.probes)
        == len(small_engine.scenario.global_campaign.probes)
    )


def test_run_sharded_requires_a_fresh_engine(small_engine):
    engine = EngineSpec.from_engine(small_engine).build()
    engine.run(TIMELINE.at(9, 18), TIMELINE.at(9, 18) + 3600.0)
    with pytest.raises(RuntimeError, match="fresh"):
        run_sharded(
            engine,
            TIMELINE.at(9, 18) + 3600.0,
            TIMELINE.at(9, 18) + 7200.0,
            workers=2,
        )


def test_run_sharded_needs_at_least_two_workers(small_engine):
    # workers=1 is engine.run's serial loop; this entry used to detour
    # there and silently drop the checkpoint plan and warm-up it was given.
    with pytest.raises(ValueError, match="workers"):
        run_sharded(
            small_engine, TIMELINE.at(9, 18), TIMELINE.at(9, 18) + 3600.0, workers=1
        )


def test_shard_divergence_error_is_a_runtime_error():
    assert issubclass(ShardDivergenceError, RuntimeError)


def test_shard_weight_counts_traffic_surcharge():
    work = {
        "indices": {"ripe-global": (0, 1), "ripe-isp": (0,)},
        "rates": {"ripe-global": 1.0, "ripe-isp": 1.0},
    }
    plain = Shard(shard_id=0, **work)
    loaded = Shard(shard_id=1, owns_traffic=True, **work)
    assert loaded.weight == plain.weight + Shard.traffic_weight


# ----------------------------------------------------------------------
# injectable clock + metric snapshots
# ----------------------------------------------------------------------


def test_engine_clock_is_injectable():
    # Step timing only runs with metrics enabled, so give the engine a
    # real registry along with the fake clock.
    from repro.obs import use_registry

    ticks = iter(range(1000))
    with use_registry(MetricsRegistry()):
        config = ScenarioConfig(
            global_probe_count=8, isp_probe_count=4, traceroute_probe_count=2
        )
        engine = SimulationEngine(
            Sep2017Scenario(config),
            step_seconds=1800.0,
            clock=lambda: float(next(ticks)),
        )
        start = TIMELINE.at(9, 18)
        engine.run(start, start + 2 * 3600.0)
    # The fake clock was consumed — wall-clock never entered the engine.
    assert next(ticks) > 0


def test_registry_snapshot_delta_and_absorb():
    source = MetricsRegistry()
    counter = source.counter("units_total", "test counter", ("kind",))
    counter.labels("a").inc(3.0)
    baseline = source.snapshot()
    counter.labels("a").inc(2.0)
    counter.labels("b").inc(1.0)
    delta = snapshot_delta(source.snapshot(), baseline)
    children = delta["units_total"]["children"]
    assert set(children.values()) == {2.0, 1.0}

    target = MetricsRegistry()
    target.counter("units_total", "test counter", ("kind",)).labels("a").inc(
        10.0
    )
    target.absorb_snapshot(delta)
    merged = target.snapshot()["units_total"]["children"]
    assert sorted(merged.values()) == [1.0, 12.0]
