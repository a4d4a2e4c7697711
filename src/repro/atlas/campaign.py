"""Measurement campaigns: scheduled DNS (and traceroute) sweeps.

The paper's cadence: the 800 global probes resolved
``appldnld.apple.com`` every 5 minutes for a week either side of the
release; the 400 ISP probes every 12 hours from Aug 21 to Dec 31;
traceroutes ran hourly against all server IPs seen in DNS.

A campaign is driven by the simulation clock: the engine calls
:meth:`DnsCampaign.maybe_run` every step and the campaign fires when a
tick is due.  This keeps DNS observations interleaved with the demand
and exposure dynamics they are supposed to witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..dns.resolver import ServerMap, resolve_bulk
from ..obs import get_registry
from ..workload.timeline import MeasurementWindow
from .cadence import Cadence
from .columnar import DnsColumns, ProbeColumns
from .probe import AtlasProbe, outcome_fields
from .results import MeasurementStore

__all__ = ["DnsCampaign", "TracerouteCampaign"]


def _campaign_counters(name: str) -> tuple:
    """The (measurements, late ticks) counters of campaign ``name``."""
    registry = get_registry()
    return (
        registry.counter(
            "atlas_measurements_total",
            "Measurements taken, by campaign",
            ("campaign",),
        ).labels(name),
        registry.counter(
            "atlas_ticks_late_total",
            "Campaign ticks fired after their scheduled slot",
            ("campaign",),
        ).labels(name),
    )


@dataclass
class DnsCampaign:
    """A scheduled DNS measurement over a probe set.

    ``name`` labels this campaign's telemetry series; a *late* tick is
    one that fired after its scheduled grid slot (the engine stepped
    past the due time), a *missed* slot is a grid point skipped
    entirely because the engine's step outpaced the interval.
    """

    probes: Sequence[AtlasProbe]
    target: str
    interval: float
    window: MeasurementWindow
    store: MeasurementStore = field(default_factory=MeasurementStore)
    name: str = "dns"
    cadence: Cadence = field(init=False, repr=False)
    _server_map: Optional[ServerMap] = field(default=None, init=False, repr=False)
    # Per probe slice measured (``None`` = all probes): its fixed
    # columns and each probe's (resolver, query context), the contexts
    # stamped on the slice's first tick and asked at every tick's time.
    _slices: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        self.cadence = Cadence(self.interval)
        if not self.probes:
            raise ValueError("campaign needs at least one probe")
        self._m_measurements, self._m_late = _campaign_counters(self.name)
        self._m_missed = get_registry().counter(
            "atlas_slots_missed_total",
            "Scheduled slots skipped because the engine stepped past them",
            ("campaign",),
        ).labels(self.name)

    def due(self, now: float) -> bool:
        """Whether a tick should fire at ``now``."""
        return self.window.contains(now) and self.cadence.due(now)

    def maybe_run(self, now: float) -> int:
        """Fire a tick if due; returns the number of measurements taken."""
        if not self.due(now):
            return 0
        return self.absorb_tick(now, self.measure_slice(now))

    def measure_slice(
        self, now: float, indices: Optional[Sequence[int]] = None
    ) -> DnsColumns:
        """Measure a subset of probes (all by default): one tick's block.

        A serial tick hands the block to :meth:`absorb_tick`; a shard
        worker ships it home as its slice, which the coordinator
        gathers into probe order before absorbing.  The slice's fixed
        columns and its probes' query contexts are built on its first
        tick and reused after that: the sweep is given the tick's time
        once.  No grid or telemetry state is touched here.
        """
        key = None if indices is None else tuple(indices)
        cached = self._slices.get(key)
        if cached is None:
            probes = self.probes if key is None else [self.probes[i] for i in key]
            cached = self._slices[key] = (
                ProbeColumns.of(self.target, probes),
                [(probe.resolver, probe.context(now)) for probe in probes],
            )
        fixed, clients = cached
        target = self.target
        if self._server_map is None:
            # All campaign probes are built from one estate server
            # list, so a single shared map serves every chase.
            self._server_map = ServerMap(self.probes[0].resolver.servers)
        # One level-synchronous sweep for the whole tick (shared server
        # lookups); value-identical to one ``measure_dns`` per probe.
        outcomes = resolve_bulk(clients, target, self._server_map, now)
        return DnsColumns.tick(
            fixed, now, [outcome_fields(target, outcome) for outcome in outcomes]
        )

    def mark_fired(self, now: float, count_metrics: bool = True) -> None:
        """Advance the due grid after a tick fired at ``now``.

        Every replica of a sharded run calls this (so ``due`` stays in
        lockstep across workers), but only the process that owns the
        recorded measurements counts telemetry — workers pass
        ``count_metrics=False`` and the coordinator counts once.
        """
        late, missed = self.cadence.fire(now)
        if count_metrics:
            self._m_measurements.inc(len(self.probes))
            if late:
                self._m_late.inc()
            if missed:
                self._m_missed.inc(missed)

    def absorb_tick(self, now: float, block: DnsColumns) -> int:
        """Record one tick's block and advance the grid; returns its rows.

        A serial tick passes what :meth:`measure_slice` measured; the
        coordinator of a sharded run passes the workers' slices gathered
        into probe order, which leaves the same store contents and grid
        state as a serial :meth:`maybe_run` at ``now``.
        """
        self.store.add_dns_block(block)
        self.mark_fired(now)
        return len(block)


@dataclass
class TracerouteCampaign:
    """Hourly traceroutes to every cache address seen in DNS so far.

    A due tick traces the ``max_targets_per_tick`` lowest address values
    the DNS store has seen from every probe, as one ``tracer`` sweep:
    ``tracer(probes, destinations, now)`` takes the address values and
    returns the block (:meth:`SimulatedTracer.sweep
    <repro.atlas.traceroute.SimulatedTracer.sweep>`), so no address or
    measurement object is built per trace.
    """

    probes: Sequence[AtlasProbe]
    dns_store: MeasurementStore
    interval: float
    window: MeasurementWindow
    tracer: Callable  # (probes, destination values, now) -> TracerouteColumns
    store: MeasurementStore = field(default_factory=MeasurementStore)
    max_targets_per_tick: int = 64
    name: str = "traceroute"
    cadence: Cadence = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.cadence = Cadence(self.interval)
        self._m_measurements, self._m_late = _campaign_counters(self.name)

    def maybe_run(self, now: float) -> int:
        """Fire a traceroute sweep if due; returns measurements taken."""
        if not (self.window.contains(now) and self.cadence.due(now)):
            return 0
        targets = self.dns_store.unique_address_values()[: self.max_targets_per_tick]
        sweep = self.tracer(self.probes, targets, now)
        self.store.add_traceroute_block(sweep)
        taken = len(sweep)
        if taken:
            self._m_measurements.inc(taken)
        late, _missed = self.cadence.fire(now)
        if late:
            self._m_late.inc()
        return taken
