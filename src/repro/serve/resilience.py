"""Client-side resilience primitives for the load generator.

Real update clients do not hammer a dead vip at a fixed interval; they
back off exponentially with jitter, stop talking to endpoints that keep
failing, and hedge slow lookups.  This module supplies those three
mechanisms for :mod:`repro.serve.loadgen`:

* :class:`BackoffPolicy` — exponential backoff with deterministic
  jitter (the same BLAKE2b ``stable_fraction`` hash the mapping
  policies use, so a fixed seed replays identical sleep sequences);
* :class:`CircuitBreaker` — a per-target closed → open → half-open
  breaker keeping retries away from vips that just failed;
* :class:`HedgePolicy` — which name a resolution of
  ``a.gslb.applimg.com`` races in parallel once its latency budget
  (:data:`repro.serve.dnsclient.HEDGE_BUDGET`) is spent:
  ``b.gslb.applimg.com``, and the other way round (the reason Apple
  publishes two GSLB names).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from ..apple.mapping import NAMES
from ..dns.policies import stable_fraction

__all__ = ["BackoffPolicy", "CircuitBreaker", "HedgePolicy"]

# Retry ``n`` (0-based) sleeps BACKOFF_BASE * BACKOFF_MULTIPLIER**n
# seconds, capped at BACKOFF_CAP, then jittered downward by up to
# BACKOFF_JITTER of itself.
BACKOFF_BASE = 0.05
BACKOFF_MULTIPLIER = 2.0
BACKOFF_CAP = 2.0
BACKOFF_JITTER = 0.5
# A target's circuit opens after BREAKER_FAILURES consecutive failures
# and admits one half-open trial BREAKER_COOLDOWN seconds later.
BREAKER_FAILURES = 5
BREAKER_COOLDOWN = 1.0


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff with deterministic jitter.

    The jitter keeps synchronized failures from retrying in lockstep.
    It is a stable hash of ``(attempt, *key)``: no random state,
    reproducible runs.
    """

    def delay(self, attempt: int, *key) -> float:
        """The sleep before retry ``attempt`` (0-based)."""
        raw = min(BACKOFF_CAP, BACKOFF_BASE * BACKOFF_MULTIPLIER ** max(0, attempt))
        spread = stable_fraction("backoff", attempt, *key)
        return raw * (1.0 - BACKOFF_JITTER * spread)


class CircuitBreaker:
    """A per-target breaker: closed → open → half-open → closed.

    :data:`BREAKER_FAILURES` consecutive failures open the circuit for
    the target; while open, :meth:`allow` answers False until
    :data:`BREAKER_COOLDOWN` seconds pass, after which one half-open
    trial is admitted — success closes the circuit, failure re-opens it
    for another cooldown.  Targets are arbitrary strings (vip addresses
    here).
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        # target -> [consecutive failures, opened_at or None, trial in flight]
        self._targets: dict[str, list] = {}
        self.opened_total = 0

    def _entry(self, target: str) -> list:
        entry = self._targets.get(target)
        if entry is None:
            entry = [0, None, False]
            self._targets[target] = entry
        return entry

    def state(self, target: str) -> str:
        """``"closed"``, ``"open"`` or ``"half-open"`` for ``target``."""
        entry = self._targets.get(target)
        if entry is None or entry[1] is None:
            return "closed"
        if self._clock() - entry[1] >= BREAKER_COOLDOWN:
            return "half-open"
        return "open"

    def allow(self, target: str) -> bool:
        """Whether a request to ``target`` may proceed right now."""
        entry = self._targets.get(target)
        if entry is None or entry[1] is None:
            return True
        if self._clock() - entry[1] < BREAKER_COOLDOWN:
            return False
        if entry[2]:
            return False  # a half-open trial is already in flight
        entry[2] = True
        return True

    def record_success(self, target: str) -> None:
        """A request to ``target`` succeeded: close its circuit."""
        entry = self._targets.get(target)
        if entry is not None:
            entry[0] = 0
            entry[1] = None
            entry[2] = False

    def record_failure(self, target: str) -> None:
        """A request to ``target`` failed: count toward opening."""
        entry = self._entry(target)
        if entry[1] is not None:
            # open or failed half-open trial: restart the cooldown
            entry[1] = self._clock()
            entry[2] = False
            return
        entry[0] += 1
        if entry[0] >= BREAKER_FAILURES:
            entry[1] = self._clock()
            entry[2] = False
            self.opened_total += 1


@dataclass(frozen=True)
class HedgePolicy:
    """Which GSLB lookup is hedged, and against which name."""

    def hedge_name(self, name: str) -> Optional[str]:
        """The name to hedge ``name`` with, if it is hedgeable."""
        if name == NAMES.gslb_a:
            return NAMES.gslb_b
        if name == NAMES.gslb_b:
            return NAMES.gslb_a
        return None
