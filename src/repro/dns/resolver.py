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
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

from ..net.ipv4 import IPv4Address, IPv4Prefix
from ..obs import get_registry
from .query import Question, QueryContext, RCode
from .records import RecordType, ResourceRecord, normalize_name
from .ttlcache import TtlCache
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


def _walk(
    qname: str, steps: Sequence[ResolutionStep]
) -> tuple[tuple[str, ...], tuple[ResourceRecord, ...], tuple[IPv4Address, ...]]:
    """The chain views of ``steps``: (names asked, CNAMEs followed, addresses).

    This is the walk :func:`resolve_bulk` performs, read back off its
    record: the question name, then the first CNAME target of each hop
    until a hop holds A records (its addresses end the walk) or holds
    neither (a dead end).  Records the chase did not follow — a second
    CNAME, a CNAME beside A records, anything past the terminating hop —
    are in ``steps`` but not in the views.
    """
    names = [qname]
    followed: list[ResourceRecord] = []
    for step in steps:
        addresses = []
        target = None
        for record in step.records:
            rtype = record.rtype
            if rtype is RecordType.A:
                addresses.append(record.data)
            elif target is None and rtype is RecordType.CNAME:
                target = record
        if addresses:
            return tuple(names), tuple(followed), tuple(addresses)
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


class _CacheEntry:
    """One cached hop: the step as first answered, and when it expires.

    ``cached_step`` is the same hop marked ``from_cache``; it is built
    on the first hit and shared by every later one (the 21600 s entry
    hop is served from cache ~70 times per fill).
    """

    __slots__ = ("step", "expires_at", "_cached_step")

    def __init__(self, step: ResolutionStep, expires_at: float) -> None:
        self.step = step
        self.expires_at = expires_at
        self._cached_step: Optional[ResolutionStep] = None

    def cached_step(self) -> ResolutionStep:
        step = self._cached_step
        if step is None:
            fresh = self.step
            step = self._cached_step = ResolutionStep(
                fresh.name, fresh.operator, fresh.records, True
            )
        return step


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

    @property
    def hit_ratio(self) -> float:
        """Hits over consultations; 0.0 before any."""
        return self.hits / self.requests if self.requests else 0.0


class RecursiveResolver:
    """Chases CNAME chains across a registry of authoritative servers.

    ``servers`` is the universe of operators' DNS services; for each
    name the most specific authoritative zone wins (so Akamai's
    ``akadns.net`` answers ``appldnld.apple.com.akadns.net`` even though
    Apple answers ``appldnld.apple.com``).

    The cache is per-resolver: RIPE Atlas probes each run their own
    local resolver, so each probe owns a resolver instance.  Pass
    ``cache=False`` for the always-fresh behaviour used by one-shot
    measurements.

    ``cache_scope`` turns the cache *shared-safe*: a per-client resolver
    keys entries by qname alone (the degenerate key — answers computed
    for its one client are trivially valid for it), but a cache shared
    across clients must partition answers by the geography the answer
    was computed for, or one client's steering answer leaks to clients
    elsewhere.  With ``cache_scope=s`` entries are keyed by ``(qname,
    client-prefix/s)`` — the announced ECS scope of a public resolver —
    so two clients only share an entry when they share the scope-``s``
    prefix.  ``cache_scope=0`` models an ECS-off shared cache: one
    worldwide partition per name.  ``cache_capacity`` bounds the number
    of *live* entries; overflow evicts the entry closest to expiry
    (deterministic tie-break on the key).
    """

    def __init__(
        self,
        servers: Iterable[AuthoritativeServer],
        cache: bool = True,
        metrics=None,
        cache_scope: Optional[int] = None,
        cache_capacity: Optional[int] = None,
    ) -> None:
        if cache_scope is not None and not 0 <= cache_scope <= 32:
            raise ValueError("cache_scope must be within [0, 32]")
        self._servers = list(servers)
        self._cache_enabled = cache
        self._cache_scope = cache_scope
        registry = metrics if metrics is not None else get_registry()
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
        # Keys are the bare qname for per-client resolvers (degenerate
        # key, byte-identical to the historical behaviour) or
        # ``(qname, scope-truncated client network)`` for shared caches.
        self._cache = TtlCache(
            cache_capacity,
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

    @property
    def servers(self) -> tuple[AuthoritativeServer, ...]:
        """The authoritative server universe this resolver consults."""
        return tuple(self._servers)

    def server_for(self, name: str) -> Optional[AuthoritativeServer]:
        """The authoritative server for ``name`` (most specific zone)."""
        return _locate(self._servers, name)[0]

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

    def cache_key(self, name: str, context: QueryContext):
        """The cache key for ``name`` asked from ``context``.

        Per-client resolvers use the bare qname; shared caches append
        the client's scope-truncated network so answers computed for
        one geography are never served to another (the partition a real
        ECS-aware public resolver keeps per announced scope).
        """
        if self._cache_scope is None:
            return name
        return (
            name,
            IPv4Prefix.containing(context.client, self._cache_scope).network,
        )

    def chases_as(
        self, context: QueryContext
    ) -> tuple[RecursiveResolver, QueryContext]:
        """The (resolver, context) a chase for ``context`` runs as.

        :func:`resolve_bulk` asks each client this once, before the
        first hop.  A resolver chases as itself; a stand-in that routes
        to a shared cache (:class:`repro.resolver.PopStubResolver`)
        names that cache and the context it asks upstream with.
        """
        return self, context

    def _query_one(
        self,
        name: str,
        context: QueryContext,
        locate: Optional[Callable[[str], "tuple[Optional[AuthoritativeServer], Optional[Zone]]"]] = None,
    ) -> ResolutionStep:
        now = context.now
        key = None
        if self._cache_enabled:
            key = self.cache_key(name, context)
            entry = self._cache.get(key, now)
            if entry is not None:
                return entry.cached_step()
        # ``locate`` lets the bulk path share one (server, zone) lookup
        # across many clients; it must agree with ``server_for``, which
        # holds whenever the clients share one server universe.
        server, zone = (
            locate(name) if locate is not None else _locate(self._servers, name)
        )
        if server is None:
            raise ResolutionError(f"no authoritative server for {name!r}")
        # The record-level answer, not a message: a located server comes
        # with its covering zone, and an unbound name is an empty hop.
        records = zone.answer(name, context) or ()
        operator = server.operator
        counters = self._m_by_operator.get(operator)
        if counters is None:
            counters = self._m_by_operator[operator] = [
                self._m_queries.labels(operator),
                None,
            ]
        counters[0].inc()
        step = ResolutionStep(name, operator, records)
        if records:
            answers = counters[1]
            if answers is None:
                answers = counters[1] = self._m_answers.labels(operator)
            answers.inc(len(records))
            if self._cache_enabled:
                ttl = records[0].ttl
                for record in records:
                    if record.ttl < ttl:
                        ttl = record.ttl
                self._cache.put(key, _CacheEntry(step, now + ttl), now)
        return step

    def flush(self) -> None:
        """Drop all cached entries (not counted as evictions)."""
        self._cache.clear()

    def sweep(self, now: Optional[float] = None) -> int:
        """Drop every entry expired at ``now`` (default: latest seen).

        Lazy expiry only removes an entry when its key is touched
        again, which a shared cache's long tail of one-off partitions
        may never be; the sweep makes capacity and eviction accounting
        truthful.  Swept entries count as evictions (their TTL passed),
        unlike :meth:`flush`.  Returns the number removed.
        """
        return self._cache.sweep(now)

    @property
    def cache_size(self) -> int:
        """Number of *live* cached entries.

        Entries whose TTL has passed the latest query time are excluded
        even before lazy expiry removes them, so a shared cache's size
        reflects what could still be served, not dict occupancy.
        """
        return self._cache.live_size

    def cache_stats(self) -> ResolverCacheStats:
        """Hit/miss/eviction counters plus the current live size."""
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
        """The authoritative (server, zone) for ``name`` (memoised)."""
        hit = self._memo.get(name)
        if hit is None:
            hit = self._memo[name] = _locate(self._servers, name)
        return hit


class _Chase:
    """One client's in-flight state during a chase.

    ``names`` and ``followed`` are the walk so far — every name asked
    and the CNAME record that led to each next one — and become the
    finished :class:`Resolution`'s views; ``names`` is also the loop
    check.
    """

    __slots__ = ("index", "resolver", "context", "steps", "names", "followed")

    def __init__(
        self, index: int, resolver: RecursiveResolver, context: QueryContext, qname: str
    ) -> None:
        self.index = index
        self.resolver = resolver
        self.context = context
        self.steps: List[ResolutionStep] = []
        self.names = [qname]
        self.followed: List[ResourceRecord] = []


def resolve_bulk(
    clients: Sequence[Tuple[RecursiveResolver, QueryContext]],
    name: str,
    server_map: Optional[ServerMap] = None,
) -> List[Union[Resolution, ResolutionError]]:
    """Resolve ``name`` for many clients in one level-synchronous sweep.

    This is the one chase implementation: all chases advance one CNAME
    hop per round, each following CNAMEs until A records (or a dead
    end) appear, and :meth:`RecursiveResolver.resolve` is the
    one-client call of it.  With a ``server_map`` the authoritative
    (server, zone) for each distinct chain name is located once instead
    of once per client.  TTL caches, metrics, rcodes, loop detection
    and the chain-length limit are per client.

    Each client is asked once, up front, which resolver and context its
    chase runs as (:meth:`RecursiveResolver.chases_as`); every hop then
    goes to that resolver directly.

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
    active = [
        _Chase(index, *client.chases_as(context), qname)
        for index, (client, context) in enumerate(clients)
    ]
    locate = server_map.locate if server_map is not None else None
    # Enum members, read off their classes once rather than per record.
    a_type, cname_type = RecordType.A, RecordType.CNAME
    noerror, nxdomain = RCode.NOERROR, RCode.NXDOMAIN
    for _ in range(_MAX_CHAIN):
        if not active:
            break
        still_active: List[_Chase] = []
        for chase in active:
            resolver = chase.resolver
            names = chase.names
            try:
                step = resolver._query_one(names[-1], chase.context, locate)
            except ResolutionError as exc:
                outcomes[chase.index] = exc
                continue
            steps = chase.steps
            steps.append(step)
            # One pass over the hop: any A record completes the chase,
            # otherwise the first CNAME redirects it (the scan ``_walk``
            # repeats for a hand-built Resolution; inlined here, in the
            # loop a replay spends its campaign phase in).
            addresses = []
            redirect: Optional[ResourceRecord] = None
            for record in step.records:
                rtype = record.rtype
                if rtype is a_type:
                    addresses.append(record.data)
                elif redirect is None and rtype is cname_type:
                    redirect = record
            if addresses or redirect is None:
                # ``redirect is None``: NODATA / NXDOMAIN at this link.
                resolver._m_resolutions.inc()
                resolver._m_chain_length.observe(len(steps))
                resolution = Resolution(
                    question, tuple(steps), noerror if addresses else nxdomain
                )
                # The walk just taken is the chain views (see _ChainView).
                views = resolution.__dict__
                views["chain_names"] = tuple(names)
                views["cname_chain"] = tuple(chase.followed)
                views["addresses"] = tuple(addresses)
                outcomes[chase.index] = resolution
                continue
            target = redirect.data
            if target in names:
                outcomes[chase.index] = ResolutionError(f"CNAME loop at {target!r}")
                continue
            chase.followed.append(redirect)
            names.append(target)
            still_active.append(chase)
        active = still_active
    for chase in active:
        outcomes[chase.index] = ResolutionError(
            f"chain longer than {_MAX_CHAIN} for {qname!r}"
        )
    return outcomes
