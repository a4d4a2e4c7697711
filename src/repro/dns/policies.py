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

A policy answers through :meth:`AnswerPolicy.bind`: everything that
depends on the owner name and the time alone (the TTL bucket, the
weights in force, the prebuilt answer records) is worked out once, and
the returned function of the asking client does the rest.  A campaign
tick binds each chain name once and asks it for every probe; the live
edge binds per query.

Answers are interned per policy: every client (at any time) handed the
same records gets the same tuple, so the chase reads each distinct
answer once (:func:`repro.dns.resolver.resolve_bulk`).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Protocol, Sequence

from ..net.ipv4 import IPv4Address
from .query import QueryContext
from .records import ARecord, CnameRecord, ResourceRecord, normalize_name
from .wire import _remember

__all__ = [
    "Answer",
    "AnswerPolicy",
    "StaticPolicy",
    "CnamePolicy",
    "CountrySplitPolicy",
    "WeightSchedule",
    "WeightedCnamePolicy",
    "GslbAddressPolicy",
    "check_ttl",
    "cname_table",
    "stable_fraction",
    "sticky_draw",
]

_TWO_64 = float(1 << 64)

#: A bound answer: the records one client gets for the bound name, now.
Answer = Callable[[QueryContext], "tuple[ResourceRecord, ...]"]


class AnswerPolicy(Protocol):
    """Produces the answer records for one owner name."""

    def bind(self, name: str, now: float) -> Answer:
        """The answer for ``name`` at time ``now``, as a function of the client.

        The returned function is valid for that ``now`` only and returns
        a tuple of records.  Equal answers are the same tuple, across
        clients and binds: a CNAME answer is built once per policy, name
        and target (:func:`cname_table`), an address answer once per
        distinct slice while it stays in the policy's memo.
        """
        ...  # pragma: no cover - protocol


class _CnameTable(dict):
    """CNAME target -> the one answer of ``name`` redirecting to it,
    built on first lookup."""

    __slots__ = ("name", "ttl")

    def __init__(self, name: str, ttl: int) -> None:
        super().__init__()
        self.name = name
        self.ttl = ttl

    def __missing__(self, target: str) -> tuple[ResourceRecord, ...]:
        records = self[target] = (CnameRecord(self.name, target, self.ttl),)
        return records


def cname_table(tables: dict, name: str, ttl: int) -> _CnameTable:
    """The CNAME answers a policy gives as ``name``, from its ``tables``
    (owner name -> table; bounded by the policy's names and targets,
    which are its configuration)."""
    table = tables.get(name)
    if table is None:
        table = tables[name] = _CnameTable(name, ttl)
    return table


def check_ttl(ttl) -> None:
    """Refuse a TTL no record could carry (negative or NaN), at construction."""
    if not ttl >= 0:
        raise ValueError(f"ttl must be non-negative, got {ttl!r}")


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


#: Owner name -> BLAKE2b-64 state after hashing ``f"{name}|"``.  One per
#: name, not per bind: the live edge binds once per query, and a draw
#: only ever copies the state.  Bounded by the names policies are bound
#: under (a zone's chain names, plus ``"gslb"``).
_HEADS: dict = {}


def sticky_draw(
    name: str, now: float, ttl: int, salt: str
) -> Callable[[QueryContext], float]:
    """The draw a selection policy makes at ``now``, per client.

    Sticky per ``(client, TTL bucket)``: the value holds for one ``ttl``
    interval (the whole run for a zero TTL), then may change.  For a
    client ``c`` it equals ``stable_fraction(name, c, bucket, salt)``:
    streaming BLAKE2b over the same bytes, from a copy of the name's
    hashed prefix, so only the client's dotted address and the tail are
    hashed per call.
    """
    bucket = int(now // ttl) if ttl > 0 else 0
    head = _HEADS.get(name)
    if head is None:
        head = _HEADS[name] = hashlib.blake2b(f"{name}|".encode(), digest_size=8)
    tail = f"|{bucket}|{salt}".encode()
    copy, from_bytes = head.copy, int.from_bytes

    def draw(context: QueryContext) -> float:
        hasher = copy()
        hasher.update(context.client_bytes + tail)
        return from_bytes(hasher.digest(), "big") / _TWO_64

    return draw


@dataclass(frozen=True)
class StaticPolicy:
    """Always answer with the same fixed records."""

    records: tuple[ResourceRecord, ...]

    def bind(self, name: str, now: float) -> Answer:
        records = self.records
        return lambda context: records


@dataclass(frozen=True)
class CnamePolicy:
    """Unconditional CNAME redirect (e.g. the 21600 s entry-point hop)."""

    target: str
    ttl: int
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_ttl(self.ttl)

    def bind(self, name: str, now: float) -> Answer:
        answer = cname_table(self._tables, name, self.ttl)[self.target]
        return lambda context: answer


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
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_ttl(self.ttl)

    def bind(self, name: str, now: float) -> Answer:
        overrides, default = self.overrides, self.default
        answers = cname_table(self._tables, name, self.ttl)

        def answer(context: QueryContext) -> tuple[ResourceRecord, ...]:
            return answers[overrides.get(context.country, default)]

        return answer


class WeightSchedule:
    """Time-varying CNAME target weights.

    The Meta-CDN operator changes distribution shares over time — most
    visibly six hours into the iOS 11 rollout, when Akamai's
    ``a1015.gi3.akamai.net`` entered the EU chain.  A schedule is a
    sorted sequence of ``(effective_from, {target: weight})`` steps; the
    weights in force at time ``t`` come from the last step at or before
    ``t``.  Weights must be finite (zero and negative ones are dropped)
    and step times must be numbers (``-inf`` is the always-active step
    of :meth:`constant`).
    """

    def __init__(self, steps: Iterable[tuple[float, Mapping[str, float]]]) -> None:
        steps = list(steps)
        for effective_from, weights in steps:
            if math.isnan(effective_from):
                raise ValueError("weight schedule step time is NaN")
            for target, weight in weights.items():
                if not math.isfinite(weight):
                    raise ValueError(
                        f"weight of {target!r} at t={effective_from} is not finite"
                    )
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


@dataclass(frozen=True)
class WeightedCnamePolicy:
    """Steps 2 and 3: weighted choice among CNAME targets.

    The choice is sticky per ``(client, TTL bucket)``: a client keeps its
    CDN for one TTL interval, then may be remapped — exactly the quick
    reroute behaviour the 15 s TTL exists to enable.  The client's draw,
    scaled by the total weight, picks the first target (in name order)
    whose running weight sum exceeds it.
    """

    schedule: WeightSchedule
    ttl: int
    salt: str = ""
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_ttl(self.ttl)

    def bind(self, name: str, now: float) -> Answer:
        ttl = self.ttl
        weights = self.schedule.weights_at(now)
        total = sum(weights.values())
        cumulative = 0.0
        table = []
        for target, weight in sorted(weights.items()):
            cumulative += weight
            table.append((cumulative, target))
        draw = sticky_draw(name, now, ttl, self.salt)
        answers = cname_table(self._tables, name, ttl)

        def answer(context: QueryContext) -> tuple[ResourceRecord, ...]:
            threshold = draw(context) * total
            for bound, target in table:
                if threshold < bound:
                    break
            # Without a break ``target`` is the last one: a draw below 1.0
            # reaches the total only through rounding.
            return answers[target]

        return answer


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
    # Owner name -> its record table (address value -> interned A
    # record, and slice values -> interned answer): an answer maps the
    # table's lookup over a pool slice, no address hash or constructor
    # per record.  The records are bounded by the values the pool hands
    # out (a deployment's server count), the answers by the wire memos'
    # bound, per name bound to this policy.
    _records: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_ttl(self.ttl)
        if self.answer_count < 1:
            raise ValueError(f"answer_count must be at least 1, got {self.answer_count!r}")

    def bind(self, name: str, now: float) -> Answer:
        pool = self.pool
        count = self.answer_count
        draw = sticky_draw(name, now, self.ttl, self.salt)
        table = self._records.get(name)
        if table is None:
            table = self._records[name] = _RecordTable(name, self.ttl)
        record, answers = table.__getitem__, table.answers
        get = answers.get

        def answer(context: QueryContext) -> tuple[ResourceRecord, ...]:
            # The pool is read in place: deployments hand out their
            # memoised ranking, and copying it per query costs more
            # than the answer.  ``count`` addresses from ``offset`` on,
            # wrapping round to the pool's head, none twice.
            candidates = pool(context)
            size = len(candidates)
            if not size:
                return ()
            offset = int(draw(context) * size)
            end = offset + count
            if end <= size:
                values = candidates[offset:end]
            else:
                values = candidates[offset:] + candidates[: min(end - size, offset)]
            # Interned by those values, never by the pool's identity: a
            # deployment moves its pool in place.  An ``array`` slice is
            # keyed by its bytes (a pool keeps one typecode), any other
            # sequence by its tuple.
            try:
                key = values.tobytes()
            except AttributeError:
                key = tuple(values)
            records = get(key)
            if records is None:
                records = tuple(map(record, values))
                _remember(answers, key, records)
            return records

        return answer


class _RecordTable(dict):
    """Address value -> the one :class:`ARecord` of ``name`` for it,
    built on first lookup; ``answers`` maps the address values of a
    pool slice (an ``array`` slice's bytes) to its records tuple, the
    oldest making room at the wire memos' bound."""

    __slots__ = ("name", "ttl", "answers")

    def __init__(self, name: str, ttl: int) -> None:
        super().__init__()
        self.name = name
        self.ttl = ttl
        self.answers: dict = {}

    def __missing__(self, value: int) -> ARecord:
        record = self[value] = ARecord(self.name, IPv4Address(value), self.ttl)
        return record
