"""Health-checked failover for the Meta-CDN selection step.

The paper's Figure 2 chain gives ``appldnld.g.applimg.com`` a 15 s TTL
precisely so Apple can re-steer clients quickly; this module supplies
the control loop that exercises it.  :class:`CdnHealthMonitor` probes
member CDNs on a fixed cadence, marks a member unhealthy after K
consecutive failures, and recovers it through half-open probing.
:class:`SelectionHealth` is the read-side view the DNS policies consult:
it removes unhealthy members from the step-3 weight schedules and bends
the step-2 Apple share to 1.0 (all traffic on Apple's GSLB) when no
third party is healthy, or to 0.0 when Apple's own CDN is the failed
member — producing exactly the overflow the ISP classifier measures.

With no monitor installed (the default everywhere) the estate behaves
bit-for-bit as before: every health hook is behind a ``None`` check.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping, Optional

from ..dns.policies import WeightSchedule
from ..net.geo import MappingRegion
from ..obs import NULL_TRACER, get_registry, get_tracer
from .injector import FaultInjector
from .schedule import FaultSchedule

__all__ = [
    "MemberState",
    "CdnHealthMonitor",
    "SelectionHealth",
    "HealthFilteredSchedule",
    "FailoverConfig",
    "FailoverLoop",
]

DEFAULT_MEMBERS = ("Apple", "Akamai", "Limelight")
# A member flips unhealthy after this many consecutive failed probes,
# and back after this many consecutive successes (the half-open phase).
K_FAILURES = 3
RECOVERY_PROBES = 2


class MemberState(Enum):
    """Health-state machine of one member CDN."""

    HEALTHY = "healthy"
    UNHEALTHY = "unhealthy"
    HALF_OPEN = "half-open"  # unhealthy, but trial probes are succeeding


class _Member:
    __slots__ = (
        "name", "healthy", "fail_streak", "ok_streak",
        "next_probe", "down_since", "probe_count",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.healthy = True
        self.fail_streak = 0
        self.ok_streak = 0
        self.next_probe: Optional[float] = None
        self.down_since = 0.0
        self.probe_count = 0


class CdnHealthMonitor:
    """Probes member CDNs and tracks their health state.

    :data:`K_FAILURES` consecutive probe failures flip a member of
    :data:`DEFAULT_MEMBERS` to UNHEALTHY; while unhealthy, probing
    continues at ``cooldown`` cadence, and :data:`RECOVERY_PROBES`
    consecutive successes (the half-open phase) flip it back.
    :meth:`tick` replays every probe instant between the last tick and
    ``now``, so large simulation steps and fine wall-clock loops drive
    the same machine.
    """

    def __init__(
        self,
        probe_interval: float = 5.0,
        cooldown: float = 10.0,
        metrics=None,
        tracer=None,
    ) -> None:
        if probe_interval <= 0 or cooldown <= 0:
            raise ValueError("probe_interval and cooldown must be positive")
        self.k_failures = K_FAILURES
        self.recovery_probes = RECOVERY_PROBES
        self.probe_interval = probe_interval
        self.cooldown = cooldown
        self._members = {name: _Member(name) for name in DEFAULT_MEMBERS}
        registry = metrics if metrics is not None else get_registry()
        self._tracer = tracer if tracer is not None else get_tracer()
        self._m_probes = registry.counter(
            "cdn_health_probes_total",
            "Member-CDN health probes, by outcome",
            ("member", "outcome"),
        )
        self._m_healthy = registry.gauge(
            "cdn_member_healthy",
            "1 when the member CDN is in DNS rotation, 0 when failed over",
            ("member",),
        )
        self._m_failovers = registry.counter(
            "cdn_failovers_total",
            "Times a member CDN was marked unhealthy",
            ("member",),
        )
        for name in self._members:
            self._m_healthy.labels(name).set(1)

    @property
    def members(self) -> tuple[str, ...]:
        """Every monitored member CDN."""
        return tuple(self._members)

    def state(self, member: str) -> MemberState:
        """The member's current health state."""
        entry = self._members[member]
        if entry.healthy:
            return MemberState.HEALTHY
        if entry.ok_streak > 0:
            return MemberState.HALF_OPEN
        return MemberState.UNHEALTHY

    def is_healthy(self, member: str) -> bool:
        """Whether the member is in rotation (unknown members are)."""
        entry = self._members.get(member)
        return entry.healthy if entry is not None else True

    def record_probe(self, member: str, ok: bool, now: float) -> None:
        """Feed one probe outcome into the state machine."""
        entry = self._members[member]
        entry.probe_count += 1
        self._m_probes.labels(member, "ok" if ok else "fail").inc()
        if entry.healthy:
            if ok:
                entry.fail_streak = 0
                return
            entry.fail_streak += 1
            if entry.fail_streak >= self.k_failures:
                entry.healthy = False
                entry.ok_streak = 0
                entry.down_since = now
                self._m_healthy.labels(member).set(0)
                self._m_failovers.labels(member).inc()
                self._tracer.event(
                    "cdn_unhealthy", ts=now, member=member,
                    consecutive_failures=entry.fail_streak,
                )
            return
        # unhealthy: half-open recovery
        if not ok:
            if entry.ok_streak:
                self._tracer.event("cdn_probe_relapse", ts=now, member=member)
            entry.ok_streak = 0
            return
        entry.ok_streak += 1
        if entry.ok_streak == 1:
            self._tracer.event("cdn_half_open", ts=now, member=member)
        if entry.ok_streak >= self.recovery_probes:
            entry.healthy = True
            entry.fail_streak = 0
            entry.ok_streak = 0
            self._m_healthy.labels(member).set(1)
            self._tracer.event(
                "cdn_recovered", ts=now, member=member,
                downtime_seconds=round(now - entry.down_since, 6),
            )

    def tick(self, now: float, probe: Callable[[str, float], bool]) -> int:
        """Run every probe due up to ``now``; returns probes executed.

        ``probe(member, at)`` must report whether the member answered.
        Catch-up is bounded so a pathological gap cannot spin: at most
        1000 probe instants per member are replayed, after which the
        cursor jumps to ``now``.
        """
        executed = 0
        for name, entry in self._members.items():
            if entry.next_probe is None:
                entry.next_probe = now
            for _ in range(1000):
                if entry.next_probe > now:
                    break
                at = entry.next_probe
                self.record_probe(name, probe(name, at), at)
                interval = (
                    self.probe_interval if entry.healthy else self.cooldown
                )
                entry.next_probe = at + interval
                executed += 1
            else:
                entry.next_probe = now
        return executed


class HealthFilteredSchedule:
    """A :class:`WeightSchedule` view with unhealthy members removed.

    Bound in place of the raw step-3 schedules so the regional
    ``ios8-{region}-lb`` answers — and the engine's operator split,
    which reads the same object — re-steer the moment the monitor flips
    a member.  If filtering would empty a step entirely the nominal
    weights are answered instead (the selection step upstream already
    routes around a fully-dark third-party tier).
    """

    def __init__(self, base: WeightSchedule, health: "SelectionHealth") -> None:
        self._base = base
        self._health = health

    def weights_at(self, now: float) -> dict[str, float]:
        """The nominal weights minus unhealthy members' targets."""
        weights = self._base.weights_at(now)
        filtered = self._health.filter_weights(weights)
        return filtered if filtered else dict(weights)


class SelectionHealth:
    """The read-side health view the Figure 2 policies consult.

    ``member_of`` maps a handover/GSLB DNS name to the member CDN that
    serves it (``None`` for names that never fail over), keeping this
    module free of any dependency on the mapping estate.
    """

    def __init__(
        self,
        monitor: CdnHealthMonitor,
        member_of: Callable[[str], Optional[str]],
    ) -> None:
        self.monitor = monitor
        self._member_of = member_of
        self._schedules: dict[MappingRegion, HealthFilteredSchedule] = {}

    def healthy(self, member: str) -> bool:
        """Whether ``member`` is currently in rotation."""
        return self.monitor.is_healthy(member)

    def apple_healthy(self) -> bool:
        """Whether Apple's own CDN is currently in rotation."""
        return self.monitor.is_healthy("Apple")

    def filter_weights(self, weights: Mapping[str, float]) -> dict[str, float]:
        """``weights`` restricted to targets whose member is healthy."""
        return {
            name: weight
            for name, weight in weights.items()
            if self._target_healthy(name)
        }

    def _target_healthy(self, name: str) -> bool:
        member = self._member_of(name)
        return member is None or self.monitor.is_healthy(member)

    def wrap_schedule(
        self, region: MappingRegion, schedule: WeightSchedule
    ) -> HealthFilteredSchedule:
        """The health-filtered view of one region's step-3 schedule."""
        wrapped = HealthFilteredSchedule(schedule, self)
        self._schedules[region] = wrapped
        return wrapped

    def third_party_available(self, region: MappingRegion, now: float) -> bool:
        """Whether any healthy third party serves ``region`` right now."""
        wrapped = self._schedules.get(region)
        if wrapped is None:
            # No step-3 schedule registered: assume the tier is up.
            return True
        return bool(self.filter_weights(wrapped._base.weights_at(now)))

    def effective_share(
        self, share: float, region: MappingRegion, now: float
    ) -> float:
        """The step-2 Apple share after failover adjustments.

        Apple down → 0.0 (everything to the surviving third parties);
        third-party tier dark → 1.0 (everything to Apple's GSLB); both
        down → the nominal share (answers must still resolve; delivery
        degrades instead).
        """
        apple_ok = self.apple_healthy()
        third_ok = self.third_party_available(region, now)
        if not apple_ok and third_ok:
            return 0.0
        if apple_ok and not third_ok:
            return 1.0
        return share


@dataclass(frozen=True)
class FailoverConfig:
    """Knobs for the health-check + failover loop (the monitor's flip
    thresholds are :data:`K_FAILURES` and :data:`RECOVERY_PROBES`)."""

    probe_interval: float = 5.0
    cooldown: float = 10.0
    fault_seed: int = 0


class FailoverLoop:
    """Ties the injector's clock to the monitor's probe cadence.

    One :meth:`advance` call per engine step (simulation) or timer tick
    (serving layer) replays the due probes against the fault plane: a
    probe fails exactly when the injector says the member CDN is down
    at that instant.
    """

    def __init__(self, monitor: CdnHealthMonitor, injector: FaultInjector) -> None:
        self.monitor = monitor
        self.injector = injector

    @classmethod
    def build(
        cls,
        schedule: FaultSchedule,
        config: FailoverConfig,
        clock: Optional[Callable[[], float]] = None,
        metrics=None,
        tracer=None,
    ) -> "FailoverLoop":
        """The whole fault plane of ``schedule``: monitor, injector, loop.

        The one place a schedule becomes a fault plane — the engine's
        scenario (``clock=None``: the engine stamps each step) and the
        serving cluster (its run-relative clock) both come through here.
        """
        monitor = CdnHealthMonitor(
            probe_interval=config.probe_interval,
            cooldown=config.cooldown,
            metrics=metrics,
            tracer=tracer,
        )
        injector = FaultInjector(
            schedule, seed=config.fault_seed, clock=clock,
            metrics=metrics, tracer=tracer,
        )
        return cls(monitor, injector)

    @contextmanager
    def quiet(self):
        """Suppress the plane's trace events (not its decisions).

        A replay to a tick boundary runs the pre-boundary ticks through
        the live world; the fault decisions and health flips must repeat
        exactly, but ``fault_opened``/``fault_closed`` and the ``cdn_*``
        events were already emitted by the original run and would
        duplicate in the trace.
        """
        saved = self.injector._tracer, self.monitor._tracer
        self.injector._tracer = self.monitor._tracer = NULL_TRACER
        try:
            yield self
        finally:
            self.injector._tracer, self.monitor._tracer = saved

    def advance(self, now: float) -> int:
        """Drive probes up to ``now``; returns probes executed."""
        self.injector.set_time(now)
        self.injector.observe(now)
        return self.monitor.tick(now, self._probe)

    def _probe(self, member: str, at: float) -> bool:
        self.injector.set_time(at)
        probe_id = self.monitor._members[member].probe_count
        return not self.injector.cdn_down(member, key=("probe", probe_id))
