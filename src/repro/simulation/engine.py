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
import sys
import time
from array import array
from dataclasses import dataclass, field, replace
from functools import reduce
from itertools import repeat
from operator import add
from typing import Callable, Iterable, Optional, Sequence

from ..net.geo import MappingRegion
from ..net.ipv4 import IPv4Address
from ..obs import get_registry, get_tracer
from .scenario import OVERFLOW_CLUSTER_PREFIX, Sep2017Scenario

__all__ = [
    "SimulationEngine", "StepReport", "RunSummary", "check_run_window",
]

_GBPS_TO_BYTES = 1e9 / 8.0
# Servers per CDN the ISP's traffic is spread over, stride-sampled from
# the active list.
ISP_SERVER_FANOUT = 64


def _sample_sources(active: Sequence) -> list[IPv4Address]:
    """Up to ``ISP_SERVER_FANOUT`` addresses, proportionally sampled.

    Stride sampling over the exposure-ordered active list (its own-AS
    members only, for background traffic) keeps the source composition
    (own-AS / hosted / overflow-cluster) representative, which is what
    the handover-AS shares of Figure 8 are made of.
    """
    if len(active) <= ISP_SERVER_FANOUT:
        return [placed.server.address for placed in active]
    stride = len(active) / ISP_SERVER_FANOUT
    return [
        active[int(index * stride)].server.address
        for index in range(ISP_SERVER_FANOUT)
    ]


# The tick's address columns are ``array('I')``, read here as one
# integer of 32-bit lanes in the machine's byte order.
_BYTE_ORDER = sys.byteorder
_LANE_ONE = (1).to_bytes(array("I").itemsize, _BYTE_ORDER)


def _destinations(srcs: array, first: int, second: int) -> array:
    """Customer host ``first + (src + second) % 1024`` for each of ``srcs``.

    Lane-parallel: the column is one integer of 32-bit lanes, the offset
    ``src % 1024`` plus ``second % 1024`` stays below 2**11 and the host
    ``first + 1023`` below 2**32, so no lane carries into the next and a
    few big-integer operations stand in for a loop per flow.
    """
    ones = int.from_bytes(_LANE_ONE * len(srcs), _BYTE_ORDER)
    mask = ones * 1023
    offsets = (int.from_bytes(srcs, _BYTE_ORDER) & mask) + ones * (second % 1024)
    hosts = (offsets & mask) + ones * first
    return array("I", hosts.to_bytes(len(_LANE_ONE) * len(srcs), _BYTE_ORDER))


class _RouteTemplate:
    """The flows one source sample puts into the ISP, whatever it sends.

    A sample routes the same way every tick; only the bytes change.  Its
    flows are columns in the per-flow loop's order, one entry per
    (source with a route, link of that route): the source value
    (``srcs``), the route's link count (``widths``: a flow carries
    ``bytes / width``) and the link's index in the engine's link table
    (``link_ids``).  ``uniform`` says every route is ``widest`` links
    wide.  ``links`` holds, per link in first-appearance order,
    ``(link_id, capacity_bytes, last, narrowest, head)``: the width of
    the link's last flow, the smallest width of any (its largest share)
    and the widths of the flows before the last, in order, as one flat
    ``(width, run length, width, run length, ...)`` tuple.  ``count`` is
    the sample's size, routeless sources included.
    """

    __slots__ = ("count", "srcs", "widths", "link_ids", "widest", "uniform", "links")

    def __init__(
        self, count: int, srcs: list[int], widths: list[int], link_ids: list[int],
        names: Sequence[str], capacities: Sequence[float],
    ) -> None:
        self.count = count
        self.srcs = array("I", srcs)
        self.widths = array("H", widths)
        self.link_ids = array("H", link_ids)
        self.widest = max(widths, default=0)
        self.uniform = len(set(widths)) <= 1
        runs: dict[int, list[int]] = {}
        for width, link in zip(widths, link_ids):
            link_runs = runs.setdefault(link, [])
            if link_runs and link_runs[-2] == width:
                link_runs[-1] += 1
            else:
                link_runs += (width, 1)
        links = []
        for link, link_runs in runs.items():
            narrowest, last = min(link_runs[::2]), link_runs[-2]
            link_runs[-1] -= 1  # the last flow is not in the head
            if not link_runs[-1]:
                del link_runs[-2:]
            links.append(
                (names[link], capacities[link], last, narrowest, tuple(link_runs))
            )
        self.links = tuple(links)


def _clip_free_fills(
    template: _RouteTemplate, shares: list[float], link_used: dict[str, float]
) -> Optional[list[float]]:
    """Each template link's fill after the call, or ``None`` if a flow
    could be clipped or carries less than a byte.

    Room only shrinks as the fill grows (``fl(cap - u)`` never rises
    with ``u``), so when a link's largest share is below the room left
    before its last flow, every flow on it fitted the room it met.
    """
    if not shares[-1] >= 1.0:  # the widest route's share: sub-byte, or NaN
        return None
    fills = []
    for link_id, capacity, last, narrowest, head in template.links:
        used = link_used.get(link_id, 0.0)
        runs = iter(head)
        for width, run in zip(runs, runs):
            used = reduce(add, repeat(shares[width], run), used)
        if not shares[narrowest] < capacity - used:
            return None
        fills.append(used + shares[last])
    return fills


def check_run_window(start: float, end: float, workers: int) -> None:
    """Refuse a run window or worker count no run can take."""
    if end <= start:
        raise ValueError("end must be after start")
    if workers < 1:
        raise ValueError("workers must be >= 1")


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
        # Source-sample key -> its _RouteTemplate: (operator, own-AS?,
        # active count) for a CDN's sample, the source values for the
        # pre-cache fill.  The RIB and the link set never change, so a
        # template is built on first use and kept for the run (and
        # never checkpointed).
        self._route_templates: dict[tuple, _RouteTemplate] = {}
        # The links templates route over, in the order they were first
        # named, with what each carries in one step: a template names a
        # link by its index here, and the tick's link column hands the
        # collector those indexes with ``_links``.  First named is
        # almost always first carried, so the flow log's own table
        # comes out in the same order and takes the column as it is.
        self._links: list[str] = []
        self._link_index: dict[str, int] = {}
        self._capacities: list[float] = []
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

    # ------------------------------------------------------------------

    def run(
        self,
        start: float,
        end: float,
        progress: Optional[Callable[[StepReport], None]] = None,
        workers: int = 1,
    ) -> int:
        """Advance from ``start`` to ``end``; returns the step count.

        ``workers > 1`` shards the run over that many worker processes
        (see :mod:`repro.simulation.concurrency`); ``workers=1`` is the
        serial loop, bit-for-bit identical to the pre-sharding engine.
        A sharded run that loses a worker raises ``ShardWorkerLost`` at
        its last merged tick; such a run is re-run, not continued.
        """
        check_run_window(start, end, workers)
        if workers > 1:
            from .concurrency import run_sharded

            return run_sharded(self, start, end, progress=progress, workers=workers)
        steps = 0
        now = start
        while now < end:
            report = self.advance(now)
            if progress is not None:
                progress(report)
            now += self.step_seconds
            steps += 1
        return steps

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
        Meta-CDN controller and the exposure controllers stay
        bit-identical (the world state is a pure function of the tick
        sequence).  No campaigns fire and no traffic is generated.
        Returns the per-region demand and the per-region operator splits.
        """
        return self._advance_demand(now)

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
        apple_share = estate.controller.apple_share(region)
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
        ``flows``, the four typed columns (src, dst, bytes, link index)
        with one entry per flow; SNMP then gets one add per link and the
        collector one block.
        """
        scenario = self.scenario
        config = scenario.config
        link_used: dict[str, float] = {}
        carried: dict[str, int] = {}
        flows = (array("I"), array("I"), array("q"), array("H"))
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
            key = tuple(source.value for source in fill_sources)
            template = self._route_templates.get(key)
            if template is None:
                template = self._route_templates[key] = self._template(fill_sources)
            fill_bytes = fill_gbps * _GBPS_TO_BYTES * self.step_seconds
            self._route_bytes(template, fill_bytes / template.count, *tick)
        exported = scenario.netflow.observe_block(now, *flows, links=self._links)
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
        active = deployment.active_servers(MappingRegion.EU)
        # The active list is a prefix of one fixed order, so its length
        # names it, and what is sampled from it.
        key = (operator, own_as_only, len(active))
        template = self._route_templates.get(key)
        if template is None:
            if own_as_only:
                active = tuple(p for p in active if p.server.asn == deployment.asn)
            template = self._route_templates[key] = self._template(
                _sample_sources(active)
            )
        if not template.count:
            return
        total_bytes = gbps * _GBPS_TO_BYTES * self.step_seconds
        self._route_bytes(template, total_bytes / template.count, *tick)

    def _template(self, sources: Sequence[IPv4Address]) -> _RouteTemplate:
        """The flows of ``sources``, routed through the public RIB."""
        rib, isp, index = self.scenario.rib, self.scenario.isp, self._link_index
        srcs: list[int] = []
        widths: list[int] = []
        link_ids: list[int] = []
        for source in sources:
            route = rib.lookup(source)
            if route is None:
                continue  # no route: traffic never arrives
            width = len(route.link_ids)
            for link_id in route.link_ids:
                link = index.get(link_id)
                if link is None:
                    capacity = isp.link(link_id).capacity_bytes(self.step_seconds)
                    link = index[link_id] = len(self._links)
                    self._links.append(link_id)
                    self._capacities.append(capacity)
                srcs.append(source.value)
                widths.append(width)
                link_ids.append(link)
        return _RouteTemplate(
            len(sources), srcs, widths, link_ids, self._links, self._capacities
        )

    def _route_bytes(
        self,
        template: _RouteTemplate,
        total_bytes: float,
        second: int,
        link_used: dict[str, float],
        carried: dict[str, int],
        flows: tuple[array, array, array, array],
    ) -> None:
        """Carry ``total_bytes`` from each of the template's sources into the ISP.

        A source's route of ``width`` links gets ``total_bytes / width``
        on each.  When no link can fill up during the call and every
        share is a byte or more, no flow is clipped or dropped, so the
        columns are extended whole and each link's fill is advanced
        once, by the same left-to-right float additions the per-flow
        loop makes (``reduce``, never ``sum``, which compensates on
        Python 3.12).  Otherwise the per-flow loop runs.
        """
        if not template.srcs:
            return
        shares = [0.0] + [total_bytes / w for w in range(1, template.widest + 1)]
        fills = _clip_free_fills(template, shares, link_used)
        if fills is None:
            self._route_flows(template, shares, second, link_used, carried, flows)
            return
        sizes = [int(share) for share in shares]
        for (link_id, _, last, _, head), fill in zip(template.links, fills):
            link_used[link_id] = fill
            total = carried.get(link_id, 0) + sizes[last]
            runs = iter(head)
            for width, run in zip(runs, runs):
                total += run * sizes[width]
            carried[link_id] = total
        srcs, dsts, flow_sizes, link_ids = flows
        srcs.extend(template.srcs)
        dsts.extend(_destinations(template.srcs, self._first_customer, second))
        if template.uniform:
            flow_sizes.extend(array("q", [sizes[template.widest]]) * len(template.srcs))
        else:
            flow_sizes.extend(array("q", map(sizes.__getitem__, template.widths)))
        link_ids.extend(template.link_ids)

    def _route_flows(
        self,
        template: _RouteTemplate,
        shares: list[float],
        second: int,
        link_used: dict[str, float],
        carried: dict[str, int],
        flows: tuple[array, array, array, array],
    ) -> None:
        """The per-flow loop: each flow clipped to its link's room.

        A share that meets a full link is cut to what is left and the
        excess never arrives; one that truncates to no bytes still
        fills its link but makes no flow.
        """
        names, capacities = self._links, self._capacities
        first_customer = self._first_customer
        put_src, put_dst, put_size, put_link = (column.append for column in flows)
        for src, width, link in zip(template.srcs, template.widths, template.link_ids):
            link_id = names[link]
            per_link = shares[width]
            used = link_used.get(link_id, 0.0)
            room = capacities[link] - used
            share = per_link if per_link < room else room
            if share <= 0:
                continue  # saturated: the excess never arrives
            link_used[link_id] = used + share
            share_bytes = int(share)
            if share_bytes <= 0:
                continue
            carried[link_id] = carried.get(link_id, 0) + share_bytes
            put_src(src)
            put_dst(first_customer + (src + second) % 1024)
            put_size(share_bytes)
            put_link(link)

    # ------------------------------------------------------------------
