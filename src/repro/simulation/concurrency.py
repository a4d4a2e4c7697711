"""Sharded parallel execution of the simulation engine.

The world state of :class:`~repro.simulation.engine.SimulationEngine`
is a *pure function of the tick sequence*: DNS selection policies hash
client and time (no draws from shared RNGs) and exposure controllers
are lag filters over the demand series.  That makes the replicated
state-machine decomposition exact rather than approximate:

* every worker process holds a **full replica** of the scenario and
  advances the cheap world state (:meth:`SimulationEngine.advance_state`)
  for every tick, keeping all replicas bit-identical;
* the expensive work — resolving the measurement campaigns' DNS chases
  and generating the ISP's Netflow/SNMP traffic — is **partitioned**
  into shards (probe slices grouped by continent, plus one shard
  owning the ISP ingress), each executed in exactly one worker;
* the coordinator gathers each campaign tick's slices back into one
  probe-order block (the permutation is fixed by the shard plan),
  runs the two campaigns that need global state (the AWS sweep owns
  the HTTP caches, the traceroute sweep needs the merged DNS store)
  and emits the same :class:`StepReport` stream the serial loop would.

Cross-shard agreement on the Meta-CDN selection state is validated by
a **batched digest exchange**: workers return one digest per tick over
(demand, EU operator split), the coordinator recomputes its own, and a
mismatch raises :class:`ShardDivergenceError` naming the first
divergent tick.  So does a slice that is not exactly its shard's
probes (missing, short or out of order), naming shard, campaign and
tick.  Ticks are shipped to workers in chunks, with chunk
``c+1`` submitted before chunk ``c`` is merged, so worker processes
never idle waiting on the coordinator.

Each shard is one ``multiprocessing.Process`` on a duplex pipe.  A
worker that dies (SIGKILL, OOM), reports an exception or returns no
chunk result within :data:`RESULT_DEADLINE_SECONDS` is *detected*, not
healed: :class:`ShardWorkerLost` stops the run at the last merged tick —
nothing of the chunk being collected is merged yet — and the message
says where it stopped and to re-run.  Every exit path reaps every
worker.

``workers=1`` never enters this module: the engine's serial loop runs
unchanged, bit-for-bit identical to the pre-sharding engine.
"""

from __future__ import annotations

import multiprocessing
from array import array
from dataclasses import dataclass
from hashlib import blake2b
from typing import Callable, Optional, Sequence

from ..atlas.columnar import DnsColumns
from ..net.geo import MappingRegion
from ..obs import (
    NULL_TRACER,
    MetricsRegistry,
    set_registry,
    set_tracer,
    snapshot_delta,
)
from ..obs.registry import NULL_REGISTRY

__all__ = [
    "Shard",
    "ShardDivergenceError",
    "ShardWorkerLost",
    "EngineSpec",
    "plan_shards",
    "state_digest",
    "run_sharded",
    "WORKER_METRIC_FAMILIES",
    "CHUNK_TICKS",
    "RESULT_DEADLINE_SECONDS",
]

# Ticks per unit of work shipped to a worker: chunk c+1 is dispatched
# before chunk c is merged.
CHUNK_TICKS = 16

# How long the coordinator waits for one chunk result before it calls
# the worker hung.  Worker boot + one chunk takes at most ~2 s at paper
# scale (800/400 probes, Sep 12-26 at 5 min), so a minute of silence is
# never a slow worker.
RESULT_DEADLINE_SECONDS = 60.0

# Metric families whose samples originate inside worker processes (the
# sharded DNS chases and the traffic generation).  Everything else —
# engine observer, campaign tick counters, AWS/traceroute, HTTP caches —
# is emitted by the coordinator, so only these are shipped home and
# merged, keeping parallel totals equal to serial ones.
WORKER_METRIC_FAMILIES = (
    "dns_queries_total",
    "dns_answer_records_total",
    "dns_cache_hits_total",
    "dns_cache_misses_total",
    "dns_cache_evictions_total",
    "dns_resolutions_total",
    "dns_cname_chain_length",
    "netflow_records_total",
    "netflow_offered_bytes_total",
    "snmp_bytes_total",
    # Per-phase tick timings recorded inside the replicas (labelled
    # "wN"); the coordinator's own phases carry worker="main", so the
    # merge is disjoint by construction.
    "engine_phase_seconds",
)


class ShardDivergenceError(RuntimeError):
    """A worker replica's world state disagreed with the coordinator's."""


class ShardWorkerLost(RuntimeError):
    """A shard worker died, hung or failed; the run stopped at the last
    merged tick."""


@dataclass(frozen=True)
class Shard:
    """One worker's slice of the per-tick work.

    ``indices`` maps each sharded campaign's name to the probe positions
    this shard measures; ``rates`` to how often a probe of that campaign
    fires per engine tick (1.0 when the campaign interval is the step,
    1/144 for the 12-hourly ISP probes at a 5-minute step): a probe
    costs its shard only on the ticks it fires.
    """

    shard_id: int
    indices: dict
    rates: dict
    owns_traffic: bool = False

    @property
    def weight(self) -> float:
        """Predicted per-tick cost, in probe resolutions."""
        return sum(
            len(positions) * self.rates[name]
            for name, positions in self.indices.items()
        ) + (self.traffic_weight if self.owns_traffic else 0)

    # One tick of ISP traffic generation, in probe resolutions; only
    # used for load balancing.  Measured from the workers' own
    # ``engine_phase_seconds`` on the ledger's replay (160/80 probes,
    # 5-min step, 2 workers, 1008 ticks, seeds 1-3): the traffic phase
    # summed to 0.70-0.77 s = 0.73 ms per tick, the campaigns phases to
    # 6.8-7.2 s over 161 840 resolutions = 43 us each, so one traffic
    # tick costs what ~17 resolutions do.
    traffic_weight = 17


def plan_shards(engine, workers: int) -> tuple[Shard, ...]:
    """Partition the engine's campaign probes into ``workers`` shards.

    Global probes are grouped by continent (the paper's own breakdown
    axis), groups too large for balance are split, and the resulting
    units — plus the ISP probe slices and the single ISP-traffic unit —
    are greedy-packed onto the requested number of shards.  Fewer
    shards come back when there is not enough work to go around.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    scenario = engine.scenario
    global_campaign, isp_campaign = scenario.global_campaign, scenario.isp_campaign
    # Firings per engine tick: a campaign slower than the step costs
    # its probes' resolutions only on the ticks it is due.
    rates = {
        campaign.name: min(1.0, engine.step_seconds / campaign.interval)
        for campaign in scenario.dns_campaigns
    }

    def unit(campaign, positions) -> tuple[float, str, tuple]:
        # (weight, kind, payload); a probe unit's kind is its campaign's
        # name, so units sort deterministically.
        name = campaign.name
        return (len(positions) * rates[name], name, tuple(positions))

    globals_by_continent: dict[str, list[int]] = {}
    for index, probe in enumerate(global_campaign.probes):
        globals_by_continent.setdefault(probe.continent.value, []).append(index)
    units = [
        unit(global_campaign, indices)
        for _, indices in sorted(globals_by_continent.items())
    ]
    # Split the largest global unit until there are enough units to
    # occupy every shard (continent × CDN granularity tops out at a
    # handful of groups; per-continent halves keep locality).
    while 0 < len(units) < workers:
        units.sort(reverse=True)
        _, kind, payload = units[0]
        if kind != global_campaign.name or len(payload) < 2:
            break
        half = len(payload) // 2
        units[0:1] = [
            unit(global_campaign, payload[:half]),
            unit(global_campaign, payload[half:]),
        ]
    isp_count = len(isp_campaign.probes)
    isp_slices = max(1, min(workers, isp_count))
    per_slice = isp_count // isp_slices
    remainder = isp_count % isp_slices
    cursor = 0
    for slice_index in range(isp_slices):
        size = per_slice + (1 if slice_index < remainder else 0)
        if size == 0:
            continue
        units.append(unit(isp_campaign, range(cursor, cursor + size)))
        cursor += size
    units.append((Shard.traffic_weight, "traffic", ()))

    bins: list[dict] = [
        {"load": 0.0, "indices": {name: [] for name in rates}, "traffic": False}
        for _ in range(min(workers, len(units)))
    ]
    for weight, kind, payload in sorted(units, reverse=True):
        target = min(bins, key=lambda b: b["load"])
        target["load"] += weight
        if kind == "traffic":
            target["traffic"] = True
        else:
            target["indices"][kind].extend(payload)
    return tuple(
        Shard(
            shard_id=shard_id,
            indices={
                name: tuple(sorted(positions))
                for name, positions in b["indices"].items()
            },
            rates=rates,
            owns_traffic=b["traffic"],
        )
        for shard_id, b in enumerate(bins)
        if b["load"] > 0
    )


def state_digest(
    now: float,
    demand_by_region: dict,
    eu_split: dict,
) -> str:
    """Digest of one tick's replicated selection state.

    Covers the per-region demand and the EU operator split — the split
    is a function of the Meta-CDN controller's apple-share and the
    third-party weights, so any replica whose controller or exposure
    state drifted produces a different digest.
    """
    h = blake2b(digest_size=16)
    h.update(repr(now).encode())
    for region in sorted(demand_by_region, key=lambda r: r.value):
        h.update(f"|{region.value}={demand_by_region[region]!r}".encode())
    for operator in sorted(eu_split):
        h.update(f"|{operator}={eu_split[operator]!r}".encode())
    return h.hexdigest()


@dataclass(frozen=True)
class EngineSpec:
    """Everything a worker needs to rebuild a bit-identical replica."""

    scenario_class: type
    config: object
    step_seconds: float
    collect_metrics: bool

    @classmethod
    def from_engine(cls, engine) -> "EngineSpec":
        scenario = engine.scenario
        return cls(
            scenario_class=type(scenario),
            config=scenario.config,
            step_seconds=engine.step_seconds,
            collect_metrics=engine._obs.metrics.enabled,
        )

    def build(self):
        """Construct the replica engine (under the ambient registry)."""
        from .engine import SimulationEngine

        scenario = self.scenario_class(self.config)
        return SimulationEngine(scenario, step_seconds=self.step_seconds)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------

_WORKER: dict = {}


def _init_worker(spec: EngineSpec, shard: Shard) -> None:
    """Build this process's replica (runs once per worker process).

    The process may have inherited the parent's registry/tracer
    defaults across ``fork`` — including open trace sinks — so both are
    replaced before any component captures an instrument handle.
    """
    registry = MetricsRegistry() if spec.collect_metrics else NULL_REGISTRY
    set_registry(registry)
    set_tracer(NULL_TRACER)
    engine = spec.build()
    engine.profile_worker = f"w{shard.shard_id}"
    _WORKER["engine"] = engine
    _WORKER["shard"] = shard
    _WORKER["registry"] = registry
    _WORKER["baseline"] = registry.snapshot(WORKER_METRIC_FAMILIES)


def _worker_chunk(ticks: Sequence[float]) -> dict:
    """Advance the replica over ``ticks``; return this shard's output."""
    engine = _WORKER["engine"]
    shard: Shard = _WORKER["shard"]
    scenario = engine.scenario
    digests: list[str] = []
    # Per sharded campaign, this shard's slice of each tick it fired.
    blocks: dict[str, dict[float, DnsColumns]] = {
        campaign.name: {} for campaign in scenario.dns_campaigns
    }
    traffic: dict[float, tuple[int, dict]] = {}
    offered_before = scenario.netflow.total_offered_bytes

    obs = engine._obs
    profiling = obs.profiling
    worker = engine.profile_worker
    clock = engine.clock

    for now in ticks:
        demand, splits = engine.advance_state(now)
        t0 = clock() if profiling else 0.0
        digests.append(state_digest(now, demand, splits[MappingRegion.EU]))
        if profiling:
            obs.observe_phase("digest", worker, clock() - t0)
        campaigns_s = 0.0
        for campaign in scenario.dns_campaigns:
            if not campaign.due(now):
                continue
            positions = shard.indices[campaign.name]
            if positions:
                # The slice travels home as the tick's columnar block:
                # typed arrays + intern tables pickle far smaller than
                # object lists, and the coordinator gathers column-wise.
                t0 = clock() if profiling else 0.0
                blocks[campaign.name][now] = campaign.measure_slice(now, positions)
                if profiling:
                    campaigns_s += clock() - t0
            campaign.mark_fired(now, count_metrics=False)
        if profiling and campaigns_s > 0.0:
            obs.observe_phase("campaigns", worker, campaigns_s)
        if shard.owns_traffic and scenario.traffic_window.contains(now):
            t0 = clock() if profiling else 0.0
            traffic[now] = engine._generate_isp_traffic_impl(
                now, splits[MappingRegion.EU]
            )
            if profiling:
                obs.observe_phase("traffic", worker, clock() - t0)

    result: dict = {
        "shard_id": shard.shard_id,
        "digests": digests,
        "blocks": blocks,
        "traffic": traffic,
    }
    if shard.owns_traffic:
        # The chunk's flows and SNMP bins travel home and are forgotten
        # here: the coordinator's log is the only copy of the run's
        # traffic, so a worker's memory stays flat however long the run.
        result["netflow"] = (
            scenario.netflow.drain(),
            scenario.netflow.total_offered_bytes - offered_before,
        )
        result["snmp"] = scenario.snmp.drain()
    # Ship the metric delta with every chunk (not just the last): the
    # coordinator's registry is then complete at any chunk boundary, and
    # a killed worker's un-consumed partials simply die with it.
    registry = _WORKER["registry"]
    snapshot = registry.snapshot(WORKER_METRIC_FAMILIES)
    result["metrics"] = snapshot_delta(snapshot, _WORKER["baseline"])
    _WORKER["baseline"] = snapshot
    return result


def _shard_worker_main(conn, spec, shard) -> None:
    """Entry point of one shard worker process.

    Protocol (all tuples over the duplex pipe): the worker builds its
    replica, then serves ``("chunk", ticks)`` → ``("result", payload)``
    until ``("stop",)``.  Any exception is reported as ``("error", text)``.
    """
    try:
        _init_worker(spec, shard)
        while True:
            message = conn.recv()
            if message[0] == "chunk":
                conn.send(("result", _worker_chunk(message[1])))
            elif message[0] == "stop":
                break
    except (EOFError, KeyboardInterrupt):
        pass
    except Exception as exc:
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except OSError:
            pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# coordinator side
# ----------------------------------------------------------------------


class _WorkerHandle:
    """The coordinator's end of one shard worker: process and pipe."""

    def __init__(self, spec, shard, context) -> None:
        self.shard = shard
        self.conn, child_conn = context.Pipe()
        self.process = context.Process(
            target=_shard_worker_main,
            args=(child_conn, spec, shard),
            daemon=True,
        )
        self.process.start()
        child_conn.close()

    def dispatch(self, chunk) -> None:
        """Queue ``chunk`` on this worker (result collected later)."""
        self._send(("chunk", chunk))

    def _send(self, message) -> None:
        try:
            self.conn.send(message)
        except OSError:
            pass  # the loss surfaces on the receive side

    def receive_result(self) -> dict:
        """Collect the next chunk result, or raise :class:`ShardWorkerLost`.

        Three ways to lose a worker, all detected here: the pipe hits
        EOF (the process died), the worker reports an exception, or no
        result arrives within :data:`RESULT_DEADLINE_SECONDS` (it hung).
        """
        who = f"shard {self.shard.shard_id} worker"
        try:
            if not self.conn.poll(RESULT_DEADLINE_SECONDS):
                raise ShardWorkerLost(
                    f"{who} hung: no chunk result for "
                    f"{RESULT_DEADLINE_SECONDS:g}s"
                )
            tag, payload = self.conn.recv()
        except (EOFError, OSError):
            raise ShardWorkerLost(f"{who} process died") from None
        if tag == "error":
            raise ShardWorkerLost(f"{who} failed: {payload}")
        return payload

    def kill(self) -> None:
        """Tear the worker process down unconditionally."""
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:
            pass

    def stop(self) -> None:
        """Ask the worker to exit, then reap it."""
        self._send(("stop",))
        self.process.join(timeout=2.0)
        self.kill()


@dataclass(frozen=True)
class _Interleave:
    """How one sharded campaign's tick slices become one probe-order block.

    ``owners`` lists, for each shard that measures the campaign (in
    plan order), its position in the plan, its id and the probe ids its
    slice must carry; ``order`` is the permutation that puts the
    slices, laid end to end, back in probe order.  Both follow from the
    shard plan alone, so a run computes them once per campaign.
    """

    name: str
    owners: tuple
    order: tuple

    @classmethod
    def of(cls, campaign, shards) -> "_Interleave":
        name = campaign.name
        owners = tuple(
            (
                position,
                shard.shard_id,
                array("q", [campaign.probes[i].probe_id for i in shard.indices[name]]),
            )
            for position, shard in enumerate(shards)
            if shard.indices[name]
        )
        laid_out = [i for shard in shards for i in shard.indices[name]]
        order = tuple(sorted(range(len(laid_out)), key=laid_out.__getitem__))
        return cls(name, owners, order)

    def gather(self, results, now: float) -> DnsColumns:
        """The campaign's block at ``now`` from the workers' results.

        Each slice must hold exactly its shard's probes, in order: a
        missing, short or misattributed slice is a divergence, raised
        before anything of it is absorbed.
        """
        slices = []
        for position, shard_id, probe_ids in self.owners:
            block = results[position]["blocks"][self.name].get(now)
            if block is None or block.probe_ids != probe_ids:
                rows = 0 if block is None else len(block)
                raise ShardDivergenceError(
                    f"shard {shard_id} diverged from the coordinator at "
                    f"t={now}: its {self.name} slice has {rows} rows, not "
                    f"its {len(probe_ids)} probes in order",
                )
            slices.append(block)
        return DnsColumns.gather(slices, self.order)


def run_sharded(
    engine,
    start: float,
    end: float,
    progress: Optional[Callable] = None,
    workers: int = 2,
) -> int:
    """Run ``engine`` from ``start`` to ``end`` over worker processes.

    Entry point behind ``SimulationEngine.run(..., workers=N)``.
    Reproduces the serial run's observable outputs exactly: identical
    DNS/traceroute stores, Netflow log, SNMP bins, StepReport stream
    and (merged) metric totals.  Raises :class:`ShardDivergenceError`
    if a replica's state drifts from the coordinator's and
    :class:`ShardWorkerLost` if a worker dies, hangs or fails.
    """
    if workers < 2:
        raise ValueError("a sharded run needs workers >= 2")
    if not engine.scenario.is_fresh():
        raise RuntimeError(
            "sharded runs must start from a fresh scenario: worker "
            "replicas are rebuilt from the spec and cannot reproduce "
            "state this engine already accumulated"
        )

    ticks: list[float] = []
    now = start
    while now < end:
        ticks.append(now)
        now += engine.step_seconds

    shards = plan_shards(engine, workers)
    spec = EngineSpec.from_engine(engine)
    scenario = engine.scenario
    interleaves = [
        _Interleave.of(campaign, shards) for campaign in scenario.dns_campaigns
    ]
    obs = engine._obs
    registry = obs.metrics
    chunks = [
        tuple(ticks[index : index + CHUNK_TICKS])
        for index in range(0, len(ticks), CHUNK_TICKS)
    ]

    # One process per shard: shard state lives in the worker process,
    # so every chunk of a shard must land on the same process.
    context = multiprocessing.get_context()
    handles = [_WorkerHandle(spec, shard, context) for shard in shards]
    steps = 0
    finished = False
    try:
        for handle in handles:
            handle.dispatch(chunks[0])
        for chunk_index, chunk in enumerate(chunks):
            try:
                results = [handle.receive_result() for handle in handles]
            except ShardWorkerLost as lost:
                # Nothing of this chunk is merged yet, so the coordinator
                # stands exactly at the previous chunk's boundary.
                raise ShardWorkerLost(
                    f"{lost}; stopped at t={chunk[0]:g} after {steps} merged "
                    "steps; re-run"
                ) from lost
            if chunk_index + 1 < len(chunks):
                # Pipeline: hand workers their next chunk before
                # merging this one, so they never wait on the merge.
                for handle in handles:
                    handle.dispatch(chunks[chunk_index + 1])
            for tick_index, tick in enumerate(chunk):
                t0 = engine.clock() if obs.profiling else 0.0
                blocks = {
                    interleave.name: interleave.gather(results, tick)
                    for campaign, interleave in zip(
                        scenario.dns_campaigns, interleaves
                    )
                    if campaign.due(tick)
                }
                traffic = None
                for result in results:
                    if tick in result.get("traffic", {}):
                        traffic = result["traffic"][tick]
                        break
                merge_s = (engine.clock() - t0) if obs.profiling else 0.0
                report = engine.advance_merged(tick, blocks, traffic)
                t0 = engine.clock() if obs.profiling else 0.0
                expected = state_digest(
                    tick, report.demand_gbps, report.operator_gbps
                )
                for shard, result in zip(shards, results):
                    if result["digests"][tick_index] != expected:
                        raise ShardDivergenceError(
                            f"shard {shard.shard_id} diverged from the "
                            f"coordinator at t={tick}",
                        )
                if obs.profiling:
                    merge_s += engine.clock() - t0
                    obs.observe_phase("merge", engine.profile_worker, merge_s)
                if progress is not None:
                    progress(report)
            for result in results:
                if "netflow" in result:
                    records, offered = result["netflow"]
                    scenario.netflow.absorb(records, offered)
                    scenario.snmp.absorb(result["snmp"])
                if "metrics" in result:
                    registry.absorb_snapshot(result["metrics"])
            steps += len(chunk)
        finished = True
    finally:
        # Guaranteed teardown on every exit path — success, lost worker,
        # divergence, KeyboardInterrupt — so no run leaks a worker
        # process.  A run that did not finish may leave workers blocked
        # sending results nobody will read: those are killed, not asked.
        for handle in handles:
            if finished:
                handle.stop()
            else:
                handle.kill()
    return steps
