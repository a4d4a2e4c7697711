"""The discrete-time simulation engine.

Each step the engine:

1. evaluates regional demand and feeds it to the Meta-CDN controller
   (whose Apple-first decision then governs the DNS answers probes see);
2. splits the demand over the CDNs per the current selection weights and
   feeds each fleet's exposure controller (growing/shrinking the IP
   pools that DNS exposes — the Figure 4/5 dynamics);
3. fires any due measurement campaigns (so probes witness the state of
   the mapping chain exactly as it evolves);
4. inside the ISP traffic window, generates the ISP's ingress traffic —
   per-CDN update volume plus each CDN's unrelated background — onto
   peering links with capacity enforcement, feeding SNMP counters and
   the Netflow collector (the Figures 7/8 inputs).
"""

from __future__ import annotations

import math
import signal
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional, Sequence

from ..net.geo import MappingRegion
from ..net.ipv4 import IPv4Address
from ..obs import get_registry, get_tracer
from .scenario import OVERFLOW_CLUSTER_PREFIX, Sep2017Scenario

__all__ = [
    "SimulationEngine", "StepReport", "RunSummary", "check_run_window", "check_workers",
]

_GBPS_TO_BYTES = 1e9 / 8.0
# Servers per CDN the ISP's traffic is spread over, stride-sampled from
# the active list.
ISP_SERVER_FANOUT = 64

# Crash-tolerance bookkeeping, reset at each run() entry: how many
# checkpoints were written (the one a lost shard worker forces
# included), whether a SIGTERM drain cut the run short, and which step a
# resume picked up from (None for a fresh run).
_RUN_STATS = {
    "checkpoints_written": 0,
    "drained": False,
    "resumed_from_step": None,
}


def check_workers(workers: int) -> None:
    """Refuse a worker count no run can take."""
    if workers < 1:
        raise ValueError("workers must be >= 1")


def check_run_window(start: float, end: float, workers: int) -> None:
    """Refuse a run window or worker count no run can take."""
    if end <= start:
        raise ValueError("end must be after start")
    check_workers(workers)


@dataclass(frozen=True)
class StepReport:
    """What one engine step did (used by progress callbacks and tests)."""

    now: float
    demand_gbps: dict
    operator_gbps: dict
    measurements: int
    flows: int


@dataclass(frozen=True)
class RunSummary:
    """Aggregates over a run's :class:`StepReport` stream.

    The CLI and example scripts build this from the reports a
    ``progress`` callback collected; ``peak_operator_gbps`` covers the
    EU split (the slice :class:`StepReport` carries).
    """

    steps: int
    first_ts: Optional[float]
    last_ts: Optional[float]
    measurements: int
    flows: int
    peak_demand_gbps: dict = field(default_factory=dict)
    peak_operator_gbps: dict = field(default_factory=dict)
    # Run-level aggregates (populated by from_run): distinct cache
    # addresses the global DNS campaign saw per operator, the share of
    # EU demand spilled off Apple's own CDN, and the share of ISP
    # ingress bytes sourced from the Limelight overflow cluster.
    unique_ips: dict = field(default_factory=dict)
    offload_share: float = 0.0
    overflow_share: float = 0.0

    @classmethod
    def from_reports(cls, reports: Iterable[StepReport]) -> "RunSummary":
        """Fold a report stream into one summary (empty stream is fine)."""
        steps = measurements = flows = 0
        first_ts: Optional[float] = None
        last_ts: Optional[float] = None
        peak_demand: dict = {}
        peak_split: dict = {}
        for report in reports:
            steps += 1
            if first_ts is None:
                first_ts = report.now
            last_ts = report.now
            measurements += report.measurements
            flows += report.flows
            for region, gbps in report.demand_gbps.items():
                if gbps > peak_demand.get(region, 0.0):
                    peak_demand[region] = gbps
            for operator, gbps in report.operator_gbps.items():
                if gbps > peak_split.get(operator, 0.0):
                    peak_split[operator] = gbps
        return cls(
            steps=steps,
            first_ts=first_ts,
            last_ts=last_ts,
            measurements=measurements,
            flows=flows,
            peak_demand_gbps=peak_demand,
            peak_operator_gbps=peak_split,
        )

    @classmethod
    def from_run(
        cls, scenario: "Sep2017Scenario", reports: Sequence[StepReport]
    ) -> "RunSummary":
        """Fold reports *and* the scenario's stores into one summary.

        These are the aggregates the sharded engine must reproduce
        bit-for-bit: the unique-IP series comes out of the merged DNS
        store, the offload share out of the EU splits, the overflow
        share out of the merged Netflow log.
        """
        base = cls.from_reports(reports)
        per_operator: dict[str, int] = {}
        for address in scenario.global_campaign.store.unique_addresses():
            operator = scenario.operator_of(address) or "unknown"
            per_operator[operator] = per_operator.get(operator, 0) + 1
        unique_ips = {
            operator: count for operator, count in sorted(per_operator.items())
        }
        apple = total = 0.0
        for report in reports:
            for operator, gbps in report.operator_gbps.items():
                total += gbps
                if operator == "Apple":
                    apple += gbps
        offload_share = (1.0 - apple / total) if total > 0 else 0.0
        overflow_bytes = total_bytes = 0
        for source, volume in scenario.netflow.records.bytes_by_source().items():
            total_bytes += volume
            if OVERFLOW_CLUSTER_PREFIX.contains(IPv4Address(source)):
                overflow_bytes += volume
        overflow_share = overflow_bytes / total_bytes if total_bytes else 0.0
        return replace(
            base,
            unique_ips=unique_ips,
            offload_share=offload_share,
            overflow_share=overflow_share,
        )

    def to_json_dict(self) -> dict:
        """A JSON-ready dict with a byte-stable canonical form.

        Enum keys become their values, float values are rounded to six
        decimals and every mapping is key-sorted, so
        ``json.dumps(summary.to_json_dict(), sort_keys=True)`` is
        stable across runs and platforms — the golden-run contract.
        """

        def fkey(key) -> str:
            return key.value if hasattr(key, "value") else str(key)

        def fval(value: float) -> float:
            return round(value, 6)  # an int count stays the same int

        def canonical(mapping: dict) -> dict:
            return {
                fkey(k): fval(v)
                for k, v in sorted(mapping.items(), key=lambda kv: fkey(kv[0]))
            }

        return {
            "steps": self.steps,
            "first_ts": None if self.first_ts is None else fval(self.first_ts),
            "last_ts": None if self.last_ts is None else fval(self.last_ts),
            "measurements": self.measurements,
            "flows": self.flows,
            "peak_demand_gbps": canonical(self.peak_demand_gbps),
            "peak_operator_gbps": canonical(self.peak_operator_gbps),
            "unique_ips": canonical(self.unique_ips),
            "offload_share": fval(self.offload_share),
            "overflow_share": fval(self.overflow_share),
        }


class _EngineObserver:
    """The engine's pre-bound instruments plus event edge detection.

    All per-step work is gated on ``enabled``: with the null registry
    and tracer the observer costs one early-returning method call per
    step (the perf ledger's ``bench.trace_overhead_pct`` is the price
    of the real ones).
    """

    __slots__ = (
        "metrics",
        "tracer",
        "enabled",
        "profiling",
        "steps",
        "step_wall",
        "phase_wall",
        "demand",
        "offload",
        "split",
        "measurements",
        "flows",
        "link_util",
        "_offload_on",
        "_saturated",
        "_peak_eu",
    )

    SATURATION_THRESHOLD = 0.98
    CLEAR_THRESHOLD = 0.90

    def __init__(self, metrics, tracer) -> None:
        self.metrics = metrics
        self.tracer = tracer
        self.enabled = bool(metrics.enabled or tracer.enabled)
        self.steps = metrics.counter(
            "engine_steps_total", "Engine steps executed"
        )
        self.step_wall = metrics.histogram(
            "engine_step_wall_seconds",
            "Wall-clock time per engine step",
            buckets=(0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0),
        )
        # Per-phase tick timings, labelled by worker ("main" for the
        # serial loop / coordinator, "wN" inside sharded replicas).
        # Profiling is gated on the registry alone: it only *times*
        # phases — world state is untouched, so golden-run byte
        # identity holds with profiling on or off.
        self.profiling = bool(metrics.enabled)
        self.phase_wall = metrics.histogram(
            "engine_phase_seconds",
            "Wall-clock time per engine tick phase",
            ("phase", "worker"),
            buckets=(
                0.00001, 0.0001, 0.0005, 0.001, 0.005,
                0.01, 0.05, 0.1, 0.5, 1.0,
            ),
        )
        self.demand = metrics.gauge(
            "engine_demand_gbps", "Offered demand per mapping region", ("region",)
        )
        self.offload = metrics.gauge(
            "engine_offload_gbps",
            "Demand spilled to third-party CDNs per region",
            ("region",),
        )
        self.split = metrics.gauge(
            "engine_operator_gbps", "EU demand split per operator", ("operator",)
        )
        self.measurements = metrics.counter(
            "engine_measurements_total", "Measurements fired by engine steps"
        )
        self.flows = metrics.counter(
            "engine_flows_total", "Flow records generated by engine steps"
        )
        self.link_util = metrics.gauge(
            "isp_link_utilization",
            "Per-link fill level over the last engine step",
            ("link",),
        )
        self._offload_on: set = set()
        self._saturated: set = set()
        self._peak_eu = 0.0

    # ----- per-step -----------------------------------------------------

    def observe_phase(self, phase: str, worker: str, seconds: float) -> None:
        """Record one tick's time spent in one engine phase."""
        self.phase_wall.labels(phase, worker).observe(seconds)

    def observe_step(
        self, engine: "SimulationEngine", report: StepReport, elapsed: float
    ) -> None:
        if not self.enabled:
            return
        scenario = engine.scenario
        self.steps.inc()
        self.step_wall.observe(elapsed)
        if report.measurements:
            self.measurements.inc(report.measurements)
        if report.flows:
            self.flows.inc(report.flows)
        controller = scenario.estate.controller
        ceiling = 1.0 - controller.min_third_party_share
        for region, demand in report.demand_gbps.items():
            self.demand.labels(region.value).set(demand)
            self.offload.labels(region.value).set(controller.offload_gbps(region))
            share = controller.apple_share(region)
            engaged = share < ceiling - 1e-9
            if engaged and region not in self._offload_on:
                self._offload_on.add(region)
                self.tracer.event(
                    "offload_engaged",
                    ts=report.now,
                    region=region.value,
                    apple_share=round(share, 4),
                    demand_gbps=round(demand, 1),
                )
            elif not engaged and region in self._offload_on:
                self._offload_on.discard(region)
                self.tracer.event(
                    "offload_released",
                    ts=report.now,
                    region=region.value,
                    demand_gbps=round(demand, 1),
                )
        for operator, gbps in report.operator_gbps.items():
            self.split.labels(operator).set(gbps)
        eu_demand = report.demand_gbps.get(MappingRegion.EU, 0.0)
        if eu_demand > self._peak_eu:
            self._peak_eu = eu_demand
            self.tracer.event(
                "demand_peak",
                ts=report.now,
                region=MappingRegion.EU.value,
                demand_gbps=round(eu_demand, 1),
            )
        self._timeline_markers(engine, report.now)

    def _timeline_markers(self, engine: "SimulationEngine", now: float) -> None:
        """Emit one-shot events for timeline moments this step covers."""
        timeline = engine.scenario.timeline
        step = engine.step_seconds
        markers = (
            ("release", timeline.ios_11_0_release, {"version": "ios-11.0"}),
            ("release", timeline.ios_11_1_release, {"version": "ios-11.1"}),
            (
                "cname_rollout",
                timeline.ios_11_0_release
                + engine.scenario.config.a1015_delay_seconds,
                {"cname": "a1015.gi3.akamai.net", "region": "eu"},
            ),
        )
        for name, moment, fields in markers:
            if moment <= now < moment + step:
                self.tracer.event(name, ts=now, **fields)

    def observe_links(
        self, engine: "SimulationEngine", now: float, link_used: dict
    ) -> None:
        """Record per-link fill levels and saturation transitions."""
        if not self.enabled:
            return
        scenario = engine.scenario
        for link_id in sorted(link_used):
            link = scenario.isp.link(link_id)
            capacity = link.capacity_bytes(engine.step_seconds)
            utilization = link_used[link_id] / capacity if capacity > 0 else 0.0
            self.link_util.labels(link_id).set(utilization)
            if utilization >= self.SATURATION_THRESHOLD:
                if link_id not in self._saturated:
                    self._saturated.add(link_id)
                    self.tracer.event(
                        "link_saturated",
                        ts=now,
                        link=link_id,
                        neighbor_asn=str(link.neighbor_asn),
                        utilization=round(utilization, 4),
                    )
            elif utilization < self.CLEAR_THRESHOLD and link_id in self._saturated:
                self._saturated.discard(link_id)
                self.tracer.event(
                    "link_cleared",
                    ts=now,
                    link=link_id,
                    utilization=round(utilization, 4),
                )


class SimulationEngine:
    """Drives the Sep 2017 scenario through time."""

    def __init__(
        self,
        scenario: Sep2017Scenario,
        step_seconds: float = 900.0,
        metrics=None,
        tracer=None,
        clock: Optional[Callable[[], float]] = None,
    ):
        if not step_seconds > 0:
            raise ValueError("step_seconds must be positive")
        if step_seconds == math.inf:
            raise ValueError("step_seconds must be finite")
        self.scenario = scenario
        self.step_seconds = step_seconds
        # Wall-clock source for step-duration telemetry; injectable so
        # tests can feed a fake clock and sharded workers a zero clock.
        self.clock: Callable[[], float] = (
            clock if clock is not None else time.perf_counter
        )
        self._server_rank_cache: dict[tuple[str, bool, int], list] = {}
        # source value -> ((link_id, capacity_bytes), ...): the links of
        # the source's route and what each carries in one step.  The
        # table and the link set never change, so a plan is built on
        # first use and kept for the run (and never checkpointed).
        self._route_plans: dict[int, tuple[tuple[str, float], ...]] = {}
        # Destinations are customer hosts 1..1024; that they exist is
        # checked here, once, instead of once per flow.
        customers = scenario.isp.customer_prefix
        customers.host(1024)
        self._first_customer = customers.host(1).value
        # Worker label on per-phase timings: "main" for the serial loop
        # and the sharded coordinator; replicas get "wN" at init.
        self.profile_worker = "main"
        self._obs = _EngineObserver(
            metrics if metrics is not None else get_registry(),
            tracer if tracer is not None else get_tracer(),
        )
        self.run_stats: dict = dict(_RUN_STATS)
        self._drain_requested = False

    # ------------------------------------------------------------------

    def run(
        self,
        start: Optional[float] = None,
        end: Optional[float] = None,
        progress: Optional[Callable[[StepReport], None]] = None,
        workers: int = 1,
        *,
        checkpoint_every: int = 0,
        checkpoint_dir=None,
        resume_from=None,
    ) -> int:
        """Advance from ``start`` to ``end``; returns the step count.

        ``workers > 1`` shards the run over that many worker processes
        (see :mod:`repro.simulation.concurrency`); ``workers=1`` is the
        serial loop, bit-for-bit identical to the pre-sharding engine.

        ``checkpoint_every=N`` (with ``checkpoint_dir``) writes an
        atomic ``RCKPT`` snapshot every N completed ticks, a final one
        on SIGTERM drain and one at the last merged tick when a shard
        worker is lost (``ShardWorkerLost``).  ``resume_from`` takes a
        :class:`~repro.simulation.checkpoint.Checkpoint` and continues
        that run bit-identically on a *freshly built* engine —
        ``start``/``end`` default to the checkpoint's; restored
        :class:`StepReport` entries are re-fed through ``progress`` so
        callers accumulate the full stream.  Returns the number of
        steps executed by *this* call (replayed ticks excluded).
        """
        if resume_from is not None:
            if start is None:
                start = resume_from.start
            if end is None:
                end = resume_from.end
        if start is None or end is None:
            raise ValueError("run() needs start and end unless resuming")
        check_run_window(start, end, workers)
        self.run_stats = dict(_RUN_STATS)
        self._drain_requested = False

        plan = None
        if checkpoint_dir is not None and not checkpoint_every:
            raise ValueError("checkpoint_dir needs checkpoint_every")
        if checkpoint_every:
            from .checkpoint import CheckpointPlan

            if checkpoint_dir is None:
                raise ValueError("checkpoint_every needs checkpoint_dir")
            plan = CheckpointPlan(
                directory=checkpoint_dir,
                every=checkpoint_every,
                origin_start=start,
                origin_end=end,
            )

        begin = start
        replayed: tuple = ()
        if resume_from is not None:
            from .checkpoint import CheckpointError, restore_run_state

            if start != resume_from.start:
                raise CheckpointError(
                    f"resume must keep the original start tick "
                    f"{resume_from.start} (got {start})"
                )
            replayed = restore_run_state(self, resume_from)
            self.run_stats["resumed_from_step"] = resume_from.steps
            begin = resume_from.next_tick
            if plan is not None:
                plan.reports = list(resume_from.reports)
                plan.written = resume_from.steps
            if progress is not None:
                for report in resume_from.reports:
                    progress(report)
        if begin >= end:
            return 0

        run_progress = progress
        if plan is not None:
            def run_progress(report, _user=progress):
                plan.reports.append(report)
                if _user is not None:
                    _user(report)

        # A SIGTERM during a checkpointed run drains instead of dying:
        # the loop finishes the tick (sharded: the chunk) in flight,
        # writes a final checkpoint and returns.  Only installable from
        # the main thread; elsewhere the default handling applies.
        saved_handler = None
        if plan is not None and threading.current_thread() is threading.main_thread():
            def _request_drain(signum, frame):
                self._drain_requested = True

            saved_handler = signal.getsignal(signal.SIGTERM)
            signal.signal(signal.SIGTERM, _request_drain)
        try:
            if workers > 1:
                from .concurrency import run_sharded

                return run_sharded(
                    self,
                    begin,
                    end,
                    progress=run_progress,
                    workers=workers,
                    warmup_ticks=replayed,
                    checkpoint_plan=plan,
                )
            steps = 0
            now = begin
            while now < end:
                report = self.advance(now)
                if run_progress is not None:
                    run_progress(report)
                now += self.step_seconds
                steps += 1
                if plan is not None:
                    plan.maybe_write(self, next_tick=now)
                    if self._drain_requested:
                        plan.maybe_write(self, next_tick=now, force=True)
                        self.run_stats["drained"] = True
                        break
            return steps
        finally:
            if saved_handler is not None:
                signal.signal(signal.SIGTERM, saved_handler)

    def advance(self, now: float) -> StepReport:
        """Execute one step at simulation time ``now``."""
        return self._step(now, None, None)

    def advance_merged(
        self,
        now: float,
        blocks: dict,
        traffic: Optional[tuple[int, dict]] = None,
    ) -> StepReport:
        """One coordinator step of a sharded run.

        The same step as :meth:`advance`, except the sharded campaigns'
        measurements arrive pre-computed from the workers — ``blocks``
        maps the name of each campaign due this tick to its tick block,
        the workers' slices gathered into probe order — and ISP traffic,
        generated in the shard that owns it, arrives as a
        ``(flows, link_used)`` pair.  The AWS and traceroute campaigns
        still run here: the AWS sweep exercises the HTTP caches only
        the coordinator owns, and the traceroute target list must see
        the *merged* DNS store.
        """
        return self._step(now, blocks, traffic)

    def _step(
        self, now: float, blocks: Optional[dict], traffic: Optional[tuple]
    ) -> StepReport:
        """The one step skeleton: measure and generate locally
        (``blocks is None``) or absorb what the shard workers did."""
        obs = self._obs
        scenario = self.scenario
        started = self.clock() if obs.enabled else 0.0
        failover = scenario.failover
        if failover is not None:
            # Replay health probes up to this step so the selection
            # policies and the operator split see current member state.
            failover.advance(now)
        with obs.tracer.span("engine.step", ts=now):
            demand_by_region, operator_gbps_by_region = self._advance_demand(now)

            with obs.tracer.span("engine.measurements", ts=now):
                t0 = self.clock() if obs.profiling else 0.0
                measurements = 0
                for campaign in scenario.campaigns:
                    if blocks and campaign.name in blocks:
                        measurements += campaign.absorb_tick(
                            now, blocks[campaign.name]
                        )
                    else:
                        # A sharded campaign absent from ``blocks`` is not
                        # due this tick, so this fires only the others.
                        measurements += campaign.maybe_run(now)
                if obs.profiling:
                    obs.observe_phase(
                        "campaigns", self.profile_worker, self.clock() - t0
                    )

            flows = 0
            if traffic is not None:
                with obs.tracer.span("engine.isp_traffic", ts=now):
                    flows, link_used = traffic
                    obs.observe_links(self, now, link_used)
            elif blocks is None and scenario.traffic_window.contains(now):
                with obs.tracer.span("engine.isp_traffic", ts=now):
                    t0 = self.clock() if obs.profiling else 0.0
                    flows = self._generate_isp_traffic(
                        now, operator_gbps_by_region[MappingRegion.EU]
                    )
                    if obs.profiling:
                        obs.observe_phase(
                            "traffic", self.profile_worker, self.clock() - t0
                        )
            report = StepReport(
                now=now,
                demand_gbps=demand_by_region,
                operator_gbps=operator_gbps_by_region[MappingRegion.EU],
                measurements=measurements,
                flows=flows,
            )
        obs.observe_step(
            self, report, (self.clock() - started) if obs.enabled else 0.0
        )
        return report

    def advance_state(
        self, now: float
    ) -> tuple[dict[MappingRegion, float], dict[MappingRegion, dict[str, float]]]:
        """Advance only the deterministic world state one step.

        This is the replicated core of a sharded run: every worker and
        the coordinator execute it for every tick, so all copies of the
        failover loop, the Meta-CDN controller and the exposure
        controllers stay bit-identical (the world state is a pure
        function of the tick sequence).  No campaigns fire and no
        traffic is generated.  Returns the per-region demand and the
        per-region operator splits.
        """
        if self.scenario.failover is not None:
            self.scenario.failover.advance(now)
        return self._advance_demand(now)

    def replay_state(self, ticks: Iterable[float]) -> Optional[tuple]:
        """Bring a fresh world to a tick boundary without re-running it.

        What a resumed run's coordinator and shard workers both do: the
        cheap world state advances and the sharded campaigns' grids
        march in lockstep over ``ticks``, but nothing is measured and no
        traffic is generated — the caller already holds those products.
        Silent: no phase samples and no fault-plane trace events, since
        the original run recorded both.  Returns the last tick's
        ``(now, demand, EU split)`` — the :func:`state_digest` inputs —
        or ``None`` for no ticks.
        """
        obs = self._obs
        scenario = self.scenario
        failover = scenario.failover
        saved_profiling = obs.profiling
        obs.profiling = False
        last: Optional[tuple] = None
        try:
            with failover.quiet() if failover is not None else nullcontext():
                for now in ticks:
                    demand, splits = self.advance_state(now)
                    last = (now, demand, splits[MappingRegion.EU])
                    for campaign in scenario.dns_campaigns:
                        if campaign.due(now):
                            campaign.mark_fired(now, count_metrics=False)
        finally:
            obs.profiling = saved_profiling
        return last

    def _advance_demand(
        self, now: float
    ) -> tuple[dict[MappingRegion, float], dict[MappingRegion, dict[str, float]]]:
        """Evaluate demand, feed the controllers, offer the splits.

        When profiling is on, the per-region loop is timed into two
        phases — "arrivals" (workload evaluation + controller feed) and
        "selection" (operator split + exposure offers) — via pure
        accumulators: the sequence of state-mutating calls is identical
        either way, preserving golden-run byte identity.
        """
        obs = self._obs
        profiling = obs.profiling
        arrivals_s = selection_s = 0.0
        demand_by_region: dict[MappingRegion, float] = {}
        operator_gbps_by_region: dict[MappingRegion, dict[str, float]] = {}
        for region in MappingRegion:
            t0 = self.clock() if profiling else 0.0
            demand = self.scenario.demand.demand_gbps(region, now)
            demand_by_region[region] = demand
            self.scenario.estate.controller.observe_demand(region, demand)
            if profiling:
                t1 = self.clock()
                arrivals_s += t1 - t0
                t0 = t1
            split = self.operator_split(region, now, demand)
            operator_gbps_by_region[region] = split
            for operator, gbps in split.items():
                deployment = self.scenario.estate.deployments.get(operator)
                if deployment is not None:
                    deployment.offer_demand(now, region, gbps)
            if profiling:
                selection_s += self.clock() - t0
        if profiling:
            worker = self.profile_worker
            obs.observe_phase("arrivals", worker, arrivals_s)
            obs.observe_phase("selection", worker, selection_s)
        return demand_by_region, operator_gbps_by_region

    # ------------------------------------------------------------------

    def operator_split(
        self, region: MappingRegion, now: float, demand_gbps: float
    ) -> dict[str, float]:
        """How ``region``'s demand divides over the CDNs right now.

        The selection-CNAME split: Apple's share, then the member
        weights over the spill.
        """
        estate = self.scenario.estate
        apple_share = estate.apple_share(region, now)
        split = {"Apple": demand_gbps * apple_share}
        spill = demand_gbps * (1.0 - apple_share)
        weights = estate.third_party_weights[region].weights_at(now)
        total_weight = sum(weights.values())
        for handover_name, weight in weights.items():
            operator = self.scenario.handover_operator(handover_name)
            if operator is None:
                continue
            split[operator] = split.get(operator, 0.0) + spill * weight / total_weight
        return split

    # ------------------------------------------------------------------
    # ISP traffic generation
    # ------------------------------------------------------------------

    def _generate_isp_traffic(self, now: float, eu_split: dict[str, float]) -> int:
        flows, link_used = self._generate_isp_traffic_impl(now, eu_split)
        self._obs.observe_links(self, now, link_used)
        return flows

    def _generate_isp_traffic_impl(
        self, now: float, eu_split: dict[str, float]
    ) -> tuple[int, dict[str, float]]:
        """Generate one step's ISP ingress; returns (flows, link fill).

        Split from the telemetry wrapper so the traffic-owning shard of
        a parallel run can generate flows in its worker process and
        ship the link-fill map home for the coordinator's observer.

        The tick is accumulated here and written once: ``_route_bytes``
        fills ``link_used`` (the float fill level it clips against),
        ``carried`` (integer bytes per link, in first-carried order) and
        ``flows``, the four columns (src, dst, bytes, link_id) with one
        entry per flow; SNMP then gets one add per link and the
        collector one block.
        """
        scenario = self.scenario
        config = scenario.config
        link_used: dict[str, float] = {}
        carried: dict[str, int] = {}
        flows: tuple[list, list, list, list] = ([], [], [], [])
        tick = (int(now), link_used, carried, flows)
        # Background exists even for CDNs the Meta-CDN is not currently
        # using (Akamai's big baseline continues after it leaves the
        # rotation — the post-event diurnal in Figure 7's Akamai panel).
        operators = set(eu_split) | set(scenario.backgrounds)
        for operator in sorted(operators):
            # Flash-crowd update traffic: served by whatever the CDN has
            # active, hosted caches included.
            update_gbps = eu_split.get(operator, 0.0) * config.isp_share_of_eu
            if update_gbps > 0:
                self._deliver(operator, update_gbps, tick, own_as_only=False)
            # Steady background: served from the CDN's established own-AS
            # footprint (direct peerings and in-network caches).
            background = scenario.backgrounds.get(operator)
            if background is not None and background.rate_gbps(now) > 0:
                self._deliver(
                    operator, background.rate_gbps(now), tick, own_as_only=True
                )
        fill_sources, fill_gbps = scenario.precache_fill(now)
        if fill_sources and fill_gbps > 0:
            fill_bytes = fill_gbps * _GBPS_TO_BYTES * self.step_seconds
            self._route_bytes(fill_sources, fill_bytes / len(fill_sources), *tick)
        exported = scenario.netflow.observe_block(now, *flows)
        for link_id, count in carried.items():
            scenario.snmp.add_bytes(link_id, now, count)
        return exported, link_used

    def _deliver(
        self, operator: str, gbps: float, tick: tuple, own_as_only: bool = False
    ) -> None:
        """Spread ``operator``'s ISP-bound traffic over its servers."""
        deployment = self.scenario.estate.deployments.get(operator)
        if deployment is None:
            return
        sources = self._sample_sources(operator, own_as_only, deployment)
        if not sources:
            return
        total_bytes = gbps * _GBPS_TO_BYTES * self.step_seconds
        self._route_bytes(sources, total_bytes / len(sources), *tick)

    def _sample_sources(
        self, operator: str, own_as_only: bool, deployment
    ) -> list[IPv4Address]:
        """Up to ``ISP_SERVER_FANOUT`` addresses, proportionally sampled.

        Stride sampling over the exposure-ordered active list (its
        own-AS members only, for background traffic) keeps the source
        composition (own-AS / hosted / overflow-cluster)
        representative, which is what the handover-AS shares of
        Figure 8 are made of.  The active list is a prefix of one fixed
        order, so its length names it — and what was sampled from it.
        """
        active = deployment.active_servers(MappingRegion.EU)
        key = (operator, own_as_only, len(active))
        cached = self._server_rank_cache.get(key)
        if cached is not None:
            return cached
        if own_as_only:
            active = tuple(p for p in active if p.server.asn == deployment.asn)
        if len(active) <= ISP_SERVER_FANOUT:
            sources = [placed.server.address for placed in active]
        else:
            stride = len(active) / ISP_SERVER_FANOUT
            sources = [
                active[int(index * stride)].server.address
                for index in range(ISP_SERVER_FANOUT)
            ]
        self._server_rank_cache[key] = sources
        return sources

    def _plan_route(self, source: IPv4Address) -> tuple[tuple[str, float], ...]:
        route = self.scenario.rib.lookup(source)
        if route is None:
            return ()
        isp = self.scenario.isp
        return tuple(
            (link_id, isp.link(link_id).capacity_bytes(self.step_seconds))
            for link_id in route.link_ids
        )

    def _route_bytes(
        self,
        sources: Sequence[IPv4Address],
        total_bytes: float,
        second: int,
        link_used: dict[str, float],
        carried: dict[str, int],
        flows: tuple[list, list, list, list],
    ) -> None:
        """Carry ``total_bytes`` from each of ``sources`` into the ISP."""
        plans = self._route_plans
        first_customer = self._first_customer
        put_src, put_dst, put_size, put_link = (column.append for column in flows)
        for source in sources:
            src = source.value
            plan = plans.get(src)
            if plan is None:
                plan = plans[src] = self._plan_route(source)
            if not plan:
                continue  # no route: traffic never arrives
            per_link = total_bytes / len(plan)
            dst = first_customer + (src + second) % 1024  # same for every link
            for link_id, capacity in plan:
                used = link_used.get(link_id, 0.0)
                room = capacity - used
                share = per_link if per_link < room else room
                if share <= 0:
                    continue  # saturated: the excess never arrives
                link_used[link_id] = used + share
                share_bytes = int(share)
                if share_bytes <= 0:
                    continue
                carried[link_id] = carried.get(link_id, 0) + share_bytes
                put_src(src)
                put_dst(dst)
                put_size(share_bytes)
                put_link(link_id)

    # ------------------------------------------------------------------
