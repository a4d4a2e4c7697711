"""Recursive resolution: CNAME chasing across operators, with a TTL cache.

RIPE Atlas probes performed full recursive resolutions of
``appldnld.apple.com`` every five minutes; each resolution walks the
whole Figure 2 chain.  :class:`RecursiveResolver` reproduces that walk:

* it finds the authoritative server for each name in the chain,
* follows CNAME redirects until A records (or an error) appear,
* records the full chain in a :class:`Resolution`, and
* honours TTLs through an optional cache, so a 15 s selection CNAME is
  re-evaluated quickly while the 21600 s entry hop is not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from ..net.ipv4 import IPv4Address
from ..obs import get_registry
from .query import Question, QueryContext, RCode
from .records import RecordType, ResourceRecord, normalize_name
from .ttlcache import TtlCache
from .wire import _remember
from .zone import AuthoritativeServer, Zone

__all__ = [
    "RecursiveResolver",
    "Resolution",
    "ResolutionStep",
    "ResolutionError",
    "ResolverCacheStats",
    "ServerMap",
    "resolve_bulk",
]

_MAX_CHAIN = 16  # generous; the Apple chain is 5 hops at its longest

# Read once: on Python 3.11 ``RecordType.A`` is a descriptor call on the
# enum class (~0.2 us), and ``_read`` compares every answer record.
_A, _CNAME = RecordType.A, RecordType.CNAME


class ResolutionError(RuntimeError):
    """Raised when a resolution cannot complete (loop, missing server)."""


@dataclass(frozen=True, init=False)
class ResolutionStep:
    """One hop of the chain: which operator answered what for which name."""

    name: str
    operator: str
    records: tuple[ResourceRecord, ...]
    from_cache: bool = False

    def __init__(
        self,
        name: str,
        operator: str,
        records: tuple[ResourceRecord, ...],
        from_cache: bool = False,
    ) -> None:
        # Stores what the generated ``__init__`` would.  That one goes
        # through ``object.__setattr__`` per field because the class is
        # frozen (1.24 us a step against 0.45 us), and a replay builds
        # one step per authoritative hop, 650 000 of them: 4.8 % of
        # ``replay_serial`` (EXPERIMENTS.md, PR 21).
        fields = self.__dict__
        fields["name"] = name
        fields["operator"] = operator
        fields["records"] = records
        fields["from_cache"] = from_cache


def _read(
    records: Sequence[ResourceRecord],
) -> tuple[tuple[IPv4Address, ...], Optional[ResourceRecord], Optional[int]]:
    """What one hop yields to the walk: (addresses, redirect, TTL).

    Any A record address ends the walk at this hop; without one the
    first CNAME (``redirect``) leads on, and a hop with neither is a
    dead end.  The TTL is the shortest record TTL, for how long a cache
    may keep the hop (``None`` for an empty hop).
    """
    addresses = []
    redirect = None
    ttl = None
    for record in records:
        rtype = record.rtype
        if rtype is _A:
            addresses.append(record.data)
        elif redirect is None and rtype is _CNAME:
            redirect = record
        if ttl is None or record.ttl < ttl:
            ttl = record.ttl
    return tuple(addresses), redirect, ttl


def _walk(
    qname: str, steps: Sequence[ResolutionStep]
) -> tuple[tuple[str, ...], tuple[ResourceRecord, ...], tuple[IPv4Address, ...]]:
    """The chain views of ``steps``: (names asked, CNAMEs followed, addresses).

    This is the walk :func:`resolve_bulk` performs, read back off its
    record (:func:`_read` per hop): the question name, then the first
    CNAME target of each hop until a hop holds A records (its addresses
    end the walk) or holds neither (a dead end).  Records the chase did
    not follow — a second CNAME, a CNAME beside A records, anything past
    the terminating hop — are in ``steps`` but not in the views.
    """
    names = [qname]
    followed: list[ResourceRecord] = []
    for step in steps:
        addresses, target, _ = _read(step.records)
        if addresses:
            return tuple(names), tuple(followed), addresses
        if target is None:
            break
        followed.append(target)
        names.append(target.data)
    return tuple(names), tuple(followed), ()


class _ChainView:
    """One chain view of a :class:`Resolution`, stored on the instance.

    :func:`resolve_bulk` writes the three views it accumulated while
    walking straight into the instance ``__dict__``; a ``Resolution``
    constructed from ``steps`` alone lands here on its first read and
    derives the same values with :func:`_walk`.  Not a data descriptor,
    so once the entry exists an access never reaches this class.
    """

    def __init__(self, doc: str) -> None:
        self.__doc__ = doc

    def __set_name__(self, owner, name: str) -> None:
        self._name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        views = instance.__dict__
        views["chain_names"], views["cname_chain"], views["addresses"] = _walk(
            instance.question.name, instance.steps
        )
        return views[self._name]


@dataclass(frozen=True, init=False)
class Resolution:
    """A completed recursive resolution.

    ``steps`` covers the whole chase in order; ``rcode`` is NOERROR
    unless the chain dead-ended.  The three chain views describe the
    walk the chase took through ``steps`` (see :func:`_walk`); they are
    not fields, so equality, hashing and ``repr`` read the three fields
    alone.
    """

    question: Question
    steps: tuple[ResolutionStep, ...]
    rcode: RCode = RCode.NOERROR

    def __init__(
        self,
        question: Question,
        steps: tuple[ResolutionStep, ...],
        rcode: RCode = RCode.NOERROR,
    ) -> None:
        # As ``ResolutionStep.__init__``: one per probe per tick.
        fields = self.__dict__
        fields["question"] = question
        fields["steps"] = steps
        fields["rcode"] = rcode

    addresses = _ChainView("The resolved cache-server addresses (final hop).")
    cname_chain = _ChainView("Every CNAME record followed, in order.")
    chain_names = _ChainView("All names asked, starting with the question name.")

    @property
    def final_name(self) -> str:
        """The terminal name of the chain."""
        return self.chain_names[-1]

    def succeeded(self) -> bool:
        """True when the resolution produced at least one address."""
        return self.rcode is RCode.NOERROR and bool(self.addresses)


# hop name -> {id(answer tuple): its tick-free read}: (step, addresses,
# redirect, TTL), the step as the operator it was read under.  The step
# holds the tuple, so while an entry is here no other live tuple can
# share its id; the operator is checked on every use, since one tuple
# may be served in two server universes.  Policies intern their answers
# per name, the oldest making room at the wire memos' bound, and each
# name's reads are kept to that same bound: a read lives about as long
# as the interned tuple it reads, so a replay reads each distinct tuple
# about once, however many names churn beside it.  The names themselves
# are bounded alike.
_READS: dict = {}


def _reads_of(name: str) -> dict:
    """The reads remembered for hop ``name``, made on first ask."""
    reads = _READS.get(name)
    if reads is None:
        reads = {}
        _remember(_READS, name, reads)
    return reads


def _read_answer(
    name: str, operator: str, records: tuple[ResourceRecord, ...], reads: dict
) -> tuple:
    """The read of ``records`` answered for ``name`` by ``operator``,
    built and remembered in ``reads``, the name's memo."""
    read = (ResolutionStep(name, operator, records),) + _read(records)
    _remember(reads, id(records), read)
    return read


class _Answer:
    """One authoritative answer as the chase holds it, and as it is cached.

    The hop's step and what it yields to the walk, from the tuple's read
    (:func:`_read_answer`), and ``expires_at``, the time a TTL cache
    keeps it until: the one part that depends on ``now``.  Every client
    handed the same answer tuple in one sweep at one ``now`` shares one,
    and so does every cache it is put in.  ``cached`` is the same hop
    with its step marked ``from_cache``, built on the first hit and
    shared by every later one (the 21600 s entry hop is served from
    cache ~70 times per fill).
    """

    __slots__ = ("step", "addresses", "redirect", "expires_at", "_cached")

    def __init__(self, read: tuple, now: float) -> None:
        self.step, self.addresses, self.redirect, ttl = read
        self.expires_at = None if ttl is None else now + ttl
        self._cached: Optional[_Answer] = None

    def cached(self) -> "_Answer":
        cached = self._cached
        if cached is None:
            step = self.step
            cached = self._cached = object.__new__(_Answer)
            cached.step = ResolutionStep(step.name, step.operator, step.records, True)
            cached.addresses, cached.redirect = self.addresses, self.redirect
            # Already the cached form: its own ``cached`` is itself.
            cached.expires_at, cached._cached = self.expires_at, cached
        return cached


@dataclass(frozen=True)
class ResolverCacheStats:
    """A snapshot of one resolver's TTL-cache behaviour.

    ``evictions`` counts entries dropped because their TTL had expired
    when they were next consulted (explicit :meth:`RecursiveResolver.flush`
    calls are not evictions); ``size`` is the current entry count.
    """

    hits: int
    misses: int
    evictions: int
    size: int

    @property
    def requests(self) -> int:
        """Total cache consultations."""
        return self.hits + self.misses


class RecursiveResolver:
    """Chases CNAME chains across a registry of authoritative servers.

    ``servers`` is the universe of operators' DNS services; for each
    name the most specific authoritative zone wins (so Akamai's
    ``akadns.net`` answers ``appldnld.apple.com.akadns.net`` even though
    Apple answers ``appldnld.apple.com``).

    The cache is per-resolver: RIPE Atlas probes each run their own
    local resolver, so each probe owns a resolver instance.  Pass
    ``cache=False`` for the always-fresh behaviour used by one-shot
    measurements.  Entries are keyed by qname alone: answers computed
    for the resolver's one client are valid for it.
    """

    def __init__(
        self,
        servers: Iterable[AuthoritativeServer],
        cache: bool = True,
    ) -> None:
        self._servers = list(servers)
        # Where each name is served, located once per name: a chase
        # without a shared map (``resolve()``) asks this one.
        self._map = ServerMap(self._servers)
        self._cache_enabled = cache
        registry = get_registry()
        # Decided once: under the null registry a chase makes no metric
        # call per hop (the cache's own integer counts still run).
        self._metered = registry.enabled
        self._m_queries = registry.counter(
            "dns_queries_total",
            "Authoritative DNS queries issued, by answering operator",
            ("operator",),
        )
        self._m_answers = registry.counter(
            "dns_answer_records_total",
            "Answer records received, by answering operator",
            ("operator",),
        )
        # operator -> its [queries, answer records] children, each bound
        # on the first hop that counts on it: a series still appears
        # only once it has counted something.
        self._m_by_operator: dict[str, list] = {}
        self._cache = TtlCache(
            None,
            hits=registry.counter(
                "dns_cache_hits_total", "Resolver TTL-cache hits"
            ),
            misses=registry.counter(
                "dns_cache_misses_total", "Resolver TTL-cache misses"
            ),
            evictions=registry.counter(
                "dns_cache_evictions_total",
                "Resolver TTL-cache entries dropped on expiry",
            ),
        )
        self._m_resolutions = registry.counter(
            "dns_resolutions_total", "Completed recursive resolutions"
        )
        self._m_chain_length = registry.histogram(
            "dns_cname_chain_length",
            "Hops walked per recursive resolution",
            buckets=(1, 2, 3, 4, 5, 6, 8, 12, 16),
        )

    def add_server(self, server: AuthoritativeServer) -> None:
        """Register an additional authoritative server."""
        self._servers.append(server)
        self._map = ServerMap(self._servers)

    @property
    def servers(self) -> tuple[AuthoritativeServer, ...]:
        """The authoritative server universe this resolver consults."""
        return tuple(self._servers)

    def server_for(self, name: str) -> Optional[AuthoritativeServer]:
        """The authoritative server for ``name`` (most specific zone)."""
        return self._map.locate(name)[0]

    def resolve(self, name: str, context: QueryContext) -> Resolution:
        """Fully resolve ``name`` for the client in ``context``.

        Follows CNAMEs until A records appear; raises
        :class:`ResolutionError` on a redirect loop or when no server is
        authoritative for a name in the chain.
        """
        outcome = resolve_bulk(((self, context),), name)[0]
        if isinstance(outcome, ResolutionError):
            raise outcome
        return outcome

    def _count_query(self, operator: str, answered: int) -> None:
        """Count one authoritative query and its ``answered`` records."""
        counters = self._m_by_operator.get(operator)
        if counters is None:
            counters = self._m_by_operator[operator] = [
                self._m_queries.labels(operator),
                None,
            ]
        counters[0].inc()
        if answered:
            answers = counters[1]
            if answers is None:
                answers = counters[1] = self._m_answers.labels(operator)
            answers.inc(answered)

    def flush(self) -> None:
        """Drop all cached entries (not counted as evictions)."""
        self._cache.clear()

    def cache_stats(self) -> ResolverCacheStats:
        """Hit/miss/eviction counters plus the current live size (entries
        whose TTL passed the latest query time are not counted)."""
        cache = self._cache
        return ResolverCacheStats(
            hits=cache.hits,
            misses=cache.misses,
            evictions=cache.evictions,
            size=cache.live_size,
        )


def _locate(
    servers: Sequence[AuthoritativeServer], name: str
) -> tuple[Optional[AuthoritativeServer], Optional[Zone]]:
    """The authoritative (server, zone) for ``name``: the first server
    (in registration order) whose deepest covering zone strictly beats
    the best seen so far."""
    best: Optional[AuthoritativeServer] = None
    best_zone: Optional[Zone] = None
    best_depth = -1
    for server in servers:
        zone = server.zone_for(name)
        if zone is not None:
            depth = zone.origin.count(".") + 1
            if depth > best_depth:
                best = server
                best_zone = zone
                best_depth = depth
    return best, best_zone


class ServerMap:
    """A shared name -> (server, zone) index over one server universe.

    Locating the authoritative server linearly scans servers and zones;
    during a campaign tick hundreds of probes walk the same handful of
    chain names, and a live edge answers the same few names forever, so
    the scan result is pure duplication.  A :class:`ServerMap` memoises
    the most-specific match once per distinct name, to be shared by
    every client that consults the same server universe (which campaign
    probe sets do by construction).
    """

    def __init__(self, servers: Iterable[AuthoritativeServer]) -> None:
        self._servers = list(servers)
        self._memo: dict[str, tuple[Optional[AuthoritativeServer], Optional[Zone]]] = {}

    def locate(self, name: str) -> tuple[Optional[AuthoritativeServer], Optional[Zone]]:
        """The authoritative (server, zone) for ``name`` (memoised, the
        oldest name making room at the wire memos' bound: a peer asking
        ever new names must not grow a live server)."""
        hit = self._memo.get(name)
        if hit is None:
            hit = _locate(self._servers, name)
            _remember(self._memo, name, hit)
        return hit


def _nothing(context: QueryContext) -> tuple:
    """The answer of a covered but unbound name: an empty hop."""
    return ()


def resolve_bulk(
    clients: Sequence[Tuple[RecursiveResolver, QueryContext]],
    name: str,
    server_map: Optional[ServerMap] = None,
    now: Optional[float] = None,
) -> List[Union[Resolution, ResolutionError]]:
    """Resolve ``name`` for many clients in one level-synchronous sweep.

    This is the one chase implementation: all chases advance one CNAME
    hop per round, in client order, each following CNAMEs until A
    records (or a dead end) appear, and
    :meth:`RecursiveResolver.resolve` is the one-client call of it.
    TTL caches, metrics, rcodes, loop detection and the chain-length
    limit are per client; a resolver listed for several clients sees
    its cache gets and puts in client order, round by round.

    Each client asks at its context's ``now``, or at ``now`` for all of
    them when it is given (a campaign tick passes its time once, with
    contexts built once per probe; no policy reads the time off a
    context).  A hop the cache cannot serve is answered by its chain
    name bound once per time (:meth:`Zone.answer_at`): with a
    ``server_map`` the (server, zone) is located and the policy bound
    once per distinct name for all clients, without one once per name
    and resolver.

    Each distinct answer tuple is read once: its step and what it yields
    to the walk are kept across sweeps (``_READS``, per hop name), and
    only the time a cache may keep it is worked out per ``now``.
    Clients handed the same tuple at one time share one answer, and
    policies hand equal answers out as the same tuple.

    Failures that :meth:`RecursiveResolver.resolve` raises are returned
    in-place as :class:`ResolutionError` instances so one bad vantage
    cannot abort a whole campaign tick (callers translate them into
    SERVFAIL measurements, as the per-probe path does).

    All clients must share one server universe when ``server_map`` is
    given; campaigns satisfy this by building every probe resolver from
    the same estate server list.
    """
    qname = normalize_name(name)
    question = Question(qname)
    outcomes: List[Union[Resolution, ResolutionError]] = [None] * len(clients)  # type: ignore[list-item]
    # One client's in-flight chase: (index, resolver, context, now,
    # steps, names, followed, cache).  ``names`` and ``followed`` are
    # the walk so far — every name asked and the CNAME record that led
    # to each next one — and become the finished Resolution's views;
    # ``names`` is also the loop check.  ``cache`` is the resolver's TTL
    # cache (``None`` when it has none), keyed by the hop's name.  A
    # tuple whose three lists grow in place: built and unpacked in one
    # step, with no attribute per field.
    active = [
        (index, resolver, context, context.now if now is None else now,
         [], [qname], [],
         resolver._cache if resolver._cache_enabled else None)
        for index, (resolver, context) in enumerate(clients)
    ]
    locate = server_map.locate if server_map is not None else None
    noerror, nxdomain = RCode.NOERROR, RCode.NXDOMAIN
    new_resolution = object.__new__
    # Chain name (with the resolver, when no map says the clients share
    # one server universe) -> (time, operator, the answer bound at that
    # time, answer tuple id -> its _Answer, the name's reads), so
    # clients handed the same tuple share one.  The held step keeps its
    # tuple alive, so an equal id is the same tuple.
    hops: dict = {}
    for _ in range(_MAX_CHAIN):
        if not active:
            break
        still_active: list = []
        for chase in active:
            index, resolver, context, at, steps, names, followed, cache = chase
            hop_name = names[-1]
            answer = None
            if cache is not None:
                answer = cache.get(hop_name, at)
                if answer is not None:
                    answer = answer.cached()
            if answer is None:
                hop_key = hop_name if locate is not None else (hop_name, resolver)
                hop = hops.get(hop_key)
                if hop is None or hop[0] != at:
                    server, zone = (
                        locate(hop_name) if locate is not None
                        else resolver._map.locate(hop_name)
                    )
                    if server is None:
                        outcomes[index] = ResolutionError(
                            f"no authoritative server for {hop_name!r}"
                        )
                        continue
                    hop = hops[hop_key] = (
                        at, server.operator, zone.answer_at(hop_name, at) or _nothing,
                        {}, _reads_of(hop_name),
                    )
                _, operator, bound, answers, reads = hop
                records = bound(context)
                if type(records) is not tuple:
                    records = tuple(records)
                answer = answers.get(id(records))
                if answer is None:
                    read = reads.get(id(records))
                    if read is None or read[0].operator != operator:
                        read = _read_answer(hop_name, operator, records, reads)
                    answer = answers[id(records)] = _Answer(read, at)
                if resolver._metered:
                    resolver._count_query(operator, len(records))
                if records and cache is not None:
                    cache.put(hop_name, answer, at)
            step = answer.step
            addresses = answer.addresses
            redirect = answer.redirect
            steps.append(step)
            if addresses or redirect is None:
                # ``redirect is None``: NODATA / NXDOMAIN at this link.
                if resolver._metered:
                    resolver._m_resolutions.inc()
                    resolver._m_chain_length.observe(len(steps))
                # The three fields, and the walk just taken as the chain
                # views (see _ChainView), in one dict update.
                resolution = new_resolution(Resolution)
                resolution.__dict__.update(
                    question=question,
                    steps=tuple(steps),
                    rcode=noerror if addresses else nxdomain,
                    chain_names=tuple(names),
                    cname_chain=tuple(followed),
                    addresses=addresses,
                )
                outcomes[index] = resolution
                continue
            target = redirect.data
            if target in names:
                outcomes[index] = ResolutionError(f"CNAME loop at {target!r}")
                continue
            followed.append(redirect)
            names.append(target)
            still_active.append(chase)
        active = still_active
    for chase in active:
        outcomes[chase[0]] = ResolutionError(
            f"chain longer than {_MAX_CHAIN} for {qname!r}"
        )
    return outcomes
