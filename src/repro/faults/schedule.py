"""Pure-data fault schedules: what breaks, when, and how badly.

A :class:`FaultSchedule` is a sorted set of :class:`FaultWindow` entries
keyed by time — simulation seconds when driving the in-memory engine,
wall-clock seconds since cluster start when driving the live serving
layer.  The schedule itself carries no randomness and no clock; the
:class:`~repro.faults.injector.FaultInjector` turns it into per-request
decisions deterministically.

Fault kinds and their ``severity`` semantics:

=====================  =================================================
kind                   severity
=====================  =================================================
``dns-drop``           probability a query to the target operator's DNS
                       is silently dropped
``dns-delay``          seconds added before the answer is sent
``dns-servfail``       probability a query is answered SERVFAIL
``dns-stale``          seconds of staleness: answers are computed as of
                       ``now - severity`` (a stuck zone snapshot)
``vip-outage``         fraction of matching vips that are hard-down for
                       the window (an exact-address target with the
                       default severity 1.0 is simply down)
``edge-crash``         fraction of matching edge-bx caches crashed; the
                       vip then serves through the edge-lx tier (§3.3)
``slow-start``         seconds of added first-byte delay per request
``cdn-blackout``       ignored — the member CDN is entirely down
``cdn-brownout``       probability any one probe/request to the member
                       CDN fails
=====================  =================================================

``target`` names what the window applies to: a CDN member / operator
(``"Apple"``, ``"Akamai"``, ``"Limelight"``), a vip
address string, an edge-bx hostname, or ``"*"`` for everything the kind
can hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

__all__ = ["FaultKind", "FaultWindow", "FaultSchedule"]


class FaultKind(Enum):
    """Everything the injection plane knows how to break."""

    # DNS layer
    DNS_DROP = "dns-drop"
    DNS_DELAY = "dns-delay"
    DNS_SERVFAIL = "dns-servfail"
    DNS_STALE = "dns-stale"
    # cache servers
    VIP_OUTAGE = "vip-outage"
    EDGE_CRASH = "edge-crash"
    SLOW_START = "slow-start"
    # whole member CDNs
    CDN_BLACKOUT = "cdn-blackout"
    CDN_BROWNOUT = "cdn-brownout"

    @classmethod
    def parse(cls, text: str) -> "FaultKind":
        """The kind named by ``text`` (the ``value`` spelling)."""
        for kind in cls:
            if kind.value == text:
                return kind
        valid = ", ".join(kind.value for kind in cls)
        raise ValueError(f"unknown fault kind {text!r} (valid: {valid})")


@dataclass(frozen=True)
class FaultWindow:
    """One scheduled fault: ``kind`` against ``target`` over [start, end)."""

    start: float
    end: float
    target: str
    kind: FaultKind
    severity: float = 1.0

    def __post_init__(self) -> None:
        if isinstance(self.kind, str):
            # A plain string kind would otherwise never match the
            # identity checks in FaultSchedule.find — coerce it.
            object.__setattr__(self, "kind", FaultKind.parse(self.kind))
        elif not isinstance(self.kind, FaultKind):
            valid = ", ".join(kind.value for kind in FaultKind)
            raise ValueError(
                f"unknown fault kind {self.kind!r} (valid: {valid})"
            )
        if self.end <= self.start:
            raise ValueError(
                f"a fault window must end after it starts "
                f"(got start={self.start:g}, end={self.end:g})"
            )
        if self.severity <= 0.0:
            raise ValueError("severity must be positive")
        if not self.target:
            raise ValueError("a fault window needs a target ('*' for all)")

    def active(self, now: float) -> bool:
        """Whether the window covers ``now`` (half-open interval)."""
        return self.start <= now < self.end

    def matches(self, *targets: Optional[str]) -> bool:
        """Whether the window applies to any of ``targets``."""
        return self.target == "*" or any(
            t is not None and t == self.target for t in targets
        )

    def shifted(self, offset: float) -> "FaultWindow":
        """The same fault, translated in time by ``offset`` seconds."""
        return FaultWindow(
            self.start + offset, self.end + offset,
            self.target, self.kind, self.severity,
        )

    def describe(self) -> str:
        """A one-line human rendering (CLI spec syntax)."""
        return (
            f"{self.kind.value}@{self.target}:"
            f"{self.start:g}-{self.end:g}:{self.severity:g}"
        )


class FaultSchedule:
    """An immutable, time-sorted collection of fault windows."""

    def __init__(self, windows: Iterable[FaultWindow] = ()) -> None:
        checked = []
        for window in windows:
            # Validate before sorting: the sort key dereferences
            # ``kind.value``, which would crash opaquely on a
            # duck-typed window that skipped FaultWindow validation.
            if not isinstance(window.kind, FaultKind):
                valid = ", ".join(kind.value for kind in FaultKind)
                raise ValueError(
                    f"unknown fault kind {window.kind!r} (valid: {valid})"
                )
            if window.end <= window.start:
                raise ValueError(
                    f"fault window {window.kind.value}@{window.target} must "
                    f"end after it starts (got start={window.start:g}, "
                    f"end={window.end:g})"
                )
            checked.append(window)
        self._windows = tuple(
            sorted(checked, key=lambda w: (w.start, w.end, w.kind.value, w.target))
        )

    @property
    def windows(self) -> tuple[FaultWindow, ...]:
        """Every scheduled window, in start order."""
        return self._windows

    def __len__(self) -> int:
        return len(self._windows)

    def __iter__(self):
        return iter(self._windows)

    def active(self, now: float) -> tuple[FaultWindow, ...]:
        """The windows covering ``now``."""
        return tuple(w for w in self._windows if w.active(now))

    def find(
        self, kind: FaultKind, now: float, *targets: Optional[str]
    ) -> Optional[FaultWindow]:
        """The worst active window of ``kind`` hitting any of ``targets``."""
        best: Optional[FaultWindow] = None
        for window in self._windows:
            if window.kind is not kind:
                continue
            if not window.active(now):
                continue
            if not window.matches(*targets):
                continue
            if best is None or window.severity > best.severity:
                best = window
        return best

    def end_time(self) -> float:
        """When the last scheduled fault clears (0.0 when empty)."""
        return max((w.end for w in self._windows), default=0.0)

    def shifted(self, offset: float) -> "FaultSchedule":
        """The whole schedule translated in time by ``offset`` seconds."""
        return FaultSchedule(w.shifted(offset) for w in self._windows)

    def describe(self) -> str:
        """One spec line per window."""
        return "\n".join(w.describe() for w in self._windows)

    @classmethod
    def parse(cls, specs: Sequence[str]) -> "FaultSchedule":
        """Build a schedule from CLI specs.

        Each spec reads ``kind@target:start-end`` or
        ``kind@target:start-end:severity``, e.g.
        ``cdn-blackout@Limelight:3-9`` or
        ``dns-drop@Akamai:0-30:0.25``.
        """
        windows = []
        for spec in specs:
            head, _, rest = spec.partition("@")
            if not rest:
                raise ValueError(f"fault spec {spec!r} is missing '@target'")
            kind = FaultKind.parse(head.strip())
            target, _, timing = rest.partition(":")
            if not timing:
                raise ValueError(f"fault spec {spec!r} is missing ':start-end'")
            parts = timing.split(":")
            if len(parts) not in (1, 2):
                raise ValueError(f"fault spec {spec!r} has too many ':' fields")
            span = parts[0].split("-")
            if len(span) != 2:
                raise ValueError(f"fault spec {spec!r} needs 'start-end' seconds")
            severity = float(parts[1]) if len(parts) == 2 else 1.0
            windows.append(
                FaultWindow(
                    start=float(span[0]),
                    end=float(span[1]),
                    target=target.strip(),
                    kind=kind,
                    severity=severity,
                )
            )
        return cls(windows)
