"""Policy-driven authoritative answers.

Each decision point in the Figure 2 mapping chain is a DNS name whose
answer depends on the querying client, the current time, or operator
configuration:

* step 1: country split (India / China vs. the world) — Akamai akadns;
* step 2: Meta-CDN service — Apple selects its own CDN or hands over to
  the third-party selection, with a 15 s TTL for quick reroutes;
* step 3: per-region third-party CDN selection — Akamai akadns with
  operator-controlled distribution shares;
* step 4: Apple's own GSLB returning cache-server A records.

Policies are deterministic: selection hashes the client address and a
time bucket, so repeated runs and parallel analyses agree while the
population-level distribution still follows the configured weights.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Protocol, Sequence

from ..net.ipv4 import IPv4Address
from .query import QueryContext
from .records import ARecord, CnameRecord, ResourceRecord, normalize_name

__all__ = [
    "AnswerPolicy",
    "StaticPolicy",
    "CnamePolicy",
    "CountrySplitPolicy",
    "WeightSchedule",
    "WeightedCnamePolicy",
    "GslbAddressPolicy",
    "stable_fraction",
    "sticky_fraction",
]

_TWO_64 = float(1 << 64)


class AnswerPolicy(Protocol):
    """Produces the answer records for one owner name."""

    def answer(self, name: str, context: QueryContext) -> tuple[ResourceRecord, ...]:
        """Records answering a query for ``name`` from ``context``."""
        ...  # pragma: no cover - protocol


def _fraction(text: str) -> float:
    """The one definition of a draw: BLAKE2b-64 of ``text`` over 2**64."""
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") / _TWO_64


def stable_fraction(*parts: object) -> float:
    """A deterministic pseudo-uniform fraction in ``[0, 1)`` of the inputs.

    Used wherever a policy needs an unbiased but reproducible choice
    (weighted CDN selection, server rotation).  BLAKE2b keeps the value
    stable across processes, unlike Python's salted ``hash``.
    """
    return _fraction("|".join(map(str, parts)))


def sticky_fraction(name: str, context: QueryContext, ttl: int, salt: str) -> float:
    """The draw a selection policy makes for this client right now.

    Sticky per ``(client, TTL bucket)``: the value holds for one ``ttl``
    interval (the whole run for a zero TTL), then may change.  Equal to
    ``stable_fraction(name, context.client, bucket, salt)``.
    """
    bucket = int(context.now // ttl) if ttl > 0 else 0
    return _fraction(f"{name}|{context.client}|{bucket}|{salt}")


@dataclass(frozen=True)
class StaticPolicy:
    """Always answer with the same fixed records."""

    records: tuple[ResourceRecord, ...]

    def answer(self, name: str, context: QueryContext) -> tuple[ResourceRecord, ...]:
        return self.records


@dataclass(frozen=True)
class CnamePolicy:
    """Unconditional CNAME redirect (e.g. the 21600 s entry-point hop)."""

    target: str
    ttl: int

    def answer(self, name: str, context: QueryContext) -> tuple[ResourceRecord, ...]:
        return (CnameRecord(name, self.target, self.ttl),)


@dataclass(frozen=True)
class CountrySplitPolicy:
    """Step 1: route selected countries to dedicated targets.

    ``overrides`` maps ISO country codes to CNAME targets (the paper
    observed ``{china|india}-lb.itunes-apple.com.akadns.net``); everyone
    else goes to ``default``.
    """

    default: str
    overrides: Mapping[str, str]
    ttl: int

    def answer(self, name: str, context: QueryContext) -> tuple[ResourceRecord, ...]:
        target = self.overrides.get(context.country, self.default)
        return (CnameRecord(name, target, self.ttl),)


class WeightSchedule:
    """Time-varying CNAME target weights.

    The Meta-CDN operator changes distribution shares over time — most
    visibly six hours into the iOS 11 rollout, when Akamai's
    ``a1015.gi3.akamai.net`` entered the EU chain.  A schedule is a
    sorted sequence of ``(effective_from, {target: weight})`` steps; the
    weights in force at time ``t`` come from the last step at or before
    ``t``.
    """

    def __init__(self, steps: Iterable[tuple[float, Mapping[str, float]]]) -> None:
        ordered = sorted(steps, key=lambda step: step[0])
        if not ordered:
            raise ValueError("empty weight schedule")
        self._steps: list[tuple[float, dict[str, float]]] = []
        for effective_from, weights in ordered:
            cleaned = {
                normalize_name(target): float(weight)
                for target, weight in weights.items()
                if weight > 0.0
            }
            if not cleaned:
                raise ValueError(f"no positive weights at t={effective_from}")
            self._steps.append((float(effective_from), cleaned))

    @classmethod
    def constant(cls, weights: Mapping[str, float]) -> "WeightSchedule":
        """A schedule with a single, always-active step."""
        return cls([(float("-inf"), weights)])

    def weights_at(self, now: float) -> dict[str, float]:
        """The weight map in force at time ``now``."""
        active = self._steps[0][1]
        for effective_from, weights in self._steps:
            if effective_from <= now:
                active = weights
            else:
                break
        return active

    def targets_at(self, now: float) -> tuple[str, ...]:
        """The targets with positive weight at ``now``, sorted."""
        return tuple(sorted(self.weights_at(now)))

    def change_times(self) -> tuple[float, ...]:
        """The times at which the schedule switches steps."""
        return tuple(step[0] for step in self._steps)


@dataclass(frozen=True)
class WeightedCnamePolicy:
    """Steps 2 and 3: weighted choice among CNAME targets.

    The choice is sticky per ``(client, TTL bucket)``: a client keeps its
    CDN for one TTL interval, then may be remapped — exactly the quick
    reroute behaviour the 15 s TTL exists to enable.
    """

    schedule: WeightSchedule
    ttl: int
    salt: str = ""

    def answer(self, name: str, context: QueryContext) -> tuple[ResourceRecord, ...]:
        target = self.select(name, context)
        return (CnameRecord(name, target, self.ttl),)

    def select(self, name: str, context: QueryContext) -> str:
        """The CNAME target chosen for this client at this time."""
        weights = self.schedule.weights_at(context.now)
        fraction = sticky_fraction(name, context, self.ttl, self.salt)
        threshold = fraction * sum(weights.values())
        cumulative = 0.0
        ordered = sorted(weights.items())
        for target, weight in ordered:
            cumulative += weight
            if threshold < cumulative:
                return target
        return ordered[-1][0]


@dataclass(frozen=True)
class GslbAddressPolicy:
    """Step 4: a global server load balancer answering with A records.

    ``pool`` maps a query context to the candidate server addresses as
    32-bit values (the CDN deployment supplies nearest-site, load-aware
    pools); ``answer_count`` addresses are drawn with client/time-stable
    rotation so the whole pool is exposed across clients — this is what
    makes the unique-IP counts of Figures 4 and 5 grow when a CDN
    activates more servers.
    """

    pool: Callable[[QueryContext], Sequence[int]]
    ttl: int
    answer_count: int = 4
    salt: str = ""
    # Owner name -> address value -> its interned A record: an answer
    # costs one dict probe per record, no address hash or constructor.
    # Bounded by the values the pool hands out (a deployment's server
    # count) per name bound to this policy.
    _records: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def answer(self, name: str, context: QueryContext) -> tuple[ResourceRecord, ...]:
        # The pool is read in place: deployments hand out their memoised
        # ranking, and copying it per query costs more than the answer.
        candidates = self.pool(context)
        size = len(candidates)
        if not size:
            return ()
        ttl = self.ttl
        offset = int(sticky_fraction(name, context, ttl, self.salt) * size)
        records = self._records.get(name)
        if records is None:
            records = self._records[name] = {}
        answer = []
        for index in range(min(self.answer_count, size)):
            value = candidates[(offset + index) % size]
            record = records.get(value)
            if record is None:
                record = records[value] = ARecord(name, IPv4Address(value), ttl)
            answer.append(record)
        return tuple(answer)
