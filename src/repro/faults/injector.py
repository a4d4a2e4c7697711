"""Deterministic fault decisions over a schedule.

:class:`FaultInjector` is the single point every instrumented layer
asks before doing work: the DNS server per datagram, the HTTP edge per
request, the vip per edge-bx pick, the health-check loop per probe.
Probabilistic severities are resolved with the same BLAKE2b
``stable_fraction`` hash the mapping policies use, keyed by the run
seed plus a caller-supplied decision key, so a fixed seed replays the
exact same fault pattern — no global random state anywhere.

Time comes either from a ``clock`` callable (the serving layer's
seconds-since-start clock) or from :meth:`set_time` (the simulation
engine stamps each step).  Components that hold an injector must treat
``None`` as "no fault plane": the hot paths stay zero-overhead when no
schedule is configured.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..dns.policies import stable_fraction
from ..obs import get_registry, get_tracer
from .schedule import FaultKind, FaultSchedule, FaultWindow

__all__ = ["FaultInjector"]


class FaultInjector:
    """Turns a :class:`FaultSchedule` into per-event fault decisions."""

    def __init__(
        self,
        schedule: FaultSchedule,
        seed: int = 0,
        clock: Optional[Callable[[], float]] = None,
        metrics=None,
        tracer=None,
    ) -> None:
        self.schedule = schedule
        self.seed = seed
        self._clock = clock
        self._now = 0.0
        self._open: set[FaultWindow] = set()
        registry = metrics if metrics is not None else get_registry()
        self._tracer = tracer if tracer is not None else get_tracer()
        self._m_injected = registry.counter(
            "faults_injected_total",
            "Fault decisions that actually injected a failure",
            ("kind",),
        )
        self._m_active = registry.gauge(
            "faults_active", "Fault windows currently open"
        )

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------

    def now(self) -> float:
        """The injector's current time (clock or last ``set_time``)."""
        if self._clock is not None:
            return self._clock()
        return self._now

    def set_time(self, now: float) -> None:
        """Stamp the current simulation time (engine-driven mode)."""
        self._now = now

    def observe(self, now: Optional[float] = None) -> None:
        """Edge-detect window opens/closes; emits trace events.

        Called from the failover loop (serve) or once per engine step
        (simulation) so fault activations are visible in the trace even
        if no request ever hits them.
        """
        at = self.now() if now is None else now
        active = set(self.schedule.active(at))
        for window in sorted(active - self._open, key=lambda w: w.start):
            self._tracer.event(
                "fault_opened",
                ts=at,
                kind=window.kind.value,
                target=window.target,
                severity=window.severity,
                until=window.end,
            )
        for window in sorted(self._open - active, key=lambda w: w.start):
            self._tracer.event(
                "fault_closed",
                ts=at,
                kind=window.kind.value,
                target=window.target,
            )
        self._open = active
        self._m_active.set(len(active))

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------

    def _decide(self, window: FaultWindow, *key) -> bool:
        """Whether this particular event falls inside the severity."""
        if window.severity >= 1.0:
            return True
        fraction = stable_fraction(
            "fault", self.seed, window.kind.value, window.target,
            str(window.start), *key,
        )
        return fraction < window.severity

    def _hit(self, kind: FaultKind) -> bool:
        self._m_injected.labels(kind.value).inc()
        return True

    def dns_fault(
        self, operator: Optional[str], key
    ) -> tuple[Optional[str], float, float]:
        """DNS-layer decision for one query to ``operator``'s DNS.

        Returns ``(action, delay_seconds, staleness_seconds)`` where
        action is ``"drop"``, ``"servfail"`` or ``None``.  Delay and
        staleness apply even when the query is answered.
        """
        now = self.now()
        action: Optional[str] = None
        window = self.schedule.find(FaultKind.DNS_DROP, now, operator)
        if window is not None and self._decide(window, key):
            self._hit(FaultKind.DNS_DROP)
            action = "drop"
        if action is None:
            window = self.schedule.find(FaultKind.DNS_SERVFAIL, now, operator)
            if window is not None and self._decide(window, key):
                self._hit(FaultKind.DNS_SERVFAIL)
                action = "servfail"
        delay = 0.0
        window = self.schedule.find(FaultKind.DNS_DELAY, now, operator)
        if window is not None:
            self._hit(FaultKind.DNS_DELAY)
            delay = window.severity
        staleness = 0.0
        window = self.schedule.find(FaultKind.DNS_STALE, now, operator)
        if window is not None:
            self._hit(FaultKind.DNS_STALE)
            staleness = window.severity
        return action, delay, staleness

    def vip_down(self, vip: str, operator: Optional[str] = None) -> bool:
        """Whether the vip at address ``vip`` is down right now.

        The decision is keyed by the vip itself, so an operator-wide
        window with severity 0.2 takes the *same* fifth of the fleet
        down for its whole duration — an outage, not request noise.
        """
        window = self.schedule.find(FaultKind.VIP_OUTAGE, self.now(), vip, operator)
        if window is None:
            return False
        if self._decide(window, "vip", vip):
            return self._hit(FaultKind.VIP_OUTAGE)
        return False

    def edge_crashed(self, hostname: str) -> bool:
        """Whether Apple's edge-bx cache ``hostname`` is crashed right now."""
        window = self.schedule.find(
            FaultKind.EDGE_CRASH, self.now(), hostname, "Apple"
        )
        if window is None:
            return False
        if self._decide(window, "edge", hostname):
            return self._hit(FaultKind.EDGE_CRASH)
        return False

    def http_delay(self, vip: str, operator: Optional[str] = None) -> float:
        """Added first-byte delay for one request (slow-start throttle)."""
        window = self.schedule.find(FaultKind.SLOW_START, self.now(), vip, operator)
        if window is None:
            return 0.0
        self._hit(FaultKind.SLOW_START)
        return window.severity

    def cdn_down(self, operator: Optional[str], key=None) -> bool:
        """Whether the member CDN ``operator`` fails this probe/request.

        A blackout always fails; a brownout fails the ``severity``
        fraction of events, keyed by ``key``.
        """
        now = self.now()
        if self.schedule.find(FaultKind.CDN_BLACKOUT, now, operator) is not None:
            return self._hit(FaultKind.CDN_BLACKOUT)
        window = self.schedule.find(FaultKind.CDN_BROWNOUT, now, operator)
        if window is not None and self._decide(window, key):
            return self._hit(FaultKind.CDN_BROWNOUT)
        return False

