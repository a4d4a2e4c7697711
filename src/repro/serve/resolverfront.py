"""A live public-resolver front: shared POP caches over real sockets.

:class:`PublicResolverFront` is a UDP DNS forwarder that sits
between the load generator and the authoritative
:class:`~repro.serve.dnsserver.AsyncDnsServer`, acting as a small
anycast fleet of public-resolver POPs.  Each query is attributed to the
POP nearest the acting client (the EDNS Client Subnet option names the
client; the shared :class:`~repro.serve.clients.ClientDirectory` maps
it to geography), answered from that POP's shared TTL cache when
possible, and forwarded upstream otherwise.

Caching is ECS-scope honest (RFC 7871 §7.3.1): an answer is stored
under the *echoed* scope the authoritative returned — the granularity
the answer actually depended on — so one cached entry serves exactly
the clients the authority said it may serve.  With ECS disabled the
front announces its POP anchor address instead of the client, so every
client behind the POP shares one entry per name: the paper's
mis-mapping and cache-dilution effects, live on the wire.

POP anchors live in the ``.255.1`` tail of the directory's CGNAT
vantage blocks, so an ECS-off upstream query geolocates to the POP's
metro through the very same directory the authoritative consults.

A datagram whose bytes after the id (``data[2:]``) were seen before
skips the decode and the POP attribution: a per-front plan memo maps
them to (POP, qname, announced address, the POP's query counter).  The
cache lookup still runs per query through :meth:`TtlCache.hit` (same
counts, same expiry), and a hit's reply bytes come from a second memo
keyed by ``(data[2:], answers, rcode, scope)`` with the datagram's own
id in front.  Untraced, well-formed queries are planned; anything else
takes the decoding path every time.  Both memos, and the per-client
POP memo, are bounded like the codec's (:func:`repro.dns.wire._remember`).
"""

from __future__ import annotations

import asyncio
from typing import Callable, Optional

from ..dns.query import RCode
from ..dns.records import ResourceRecord
from ..dns.ttlcache import TtlCache
from ..dns.wire import (
    _MEMO_MAX_KEY_OCTETS,
    ClientSubnet,
    WireMessage,
    _remember,
    decode_message,
    encode_message,
    servfail_reply,
)
from ..net.ipv4 import IPv4Address
from ..obs import get_registry
from ..resolver import DEFAULT_POPS, POP_CACHE_CAPACITY, ResolverPop, nearest_pop
from .clients import ClientDirectory
from .dnsclient import AsyncDnsClient, DnsClientError
from .listener import Listener, RunClock

__all__ = ["PublicResolverFront"]

# Each upstream query waits this long, and is retried this often,
# before its waiters all get SERVFAIL.
_UPSTREAM_TIMEOUT = 2.0
_UPSTREAM_RETRIES = 2


class _CacheEntry:
    __slots__ = ("answers", "rcode", "authoritative", "scope", "expires_at")

    def __init__(self, answers: tuple[ResourceRecord, ...], rcode: RCode,
                 authoritative: bool, scope: int, expires_at: float) -> None:
        self.answers = answers
        self.rcode = rcode
        self.authoritative = authoritative
        self.scope = scope
        self.expires_at = expires_at


class PublicResolverFront:
    """An asyncio UDP caching forwarder fronting the authoritative server.

    :meth:`start` takes the (host, port) of a running
    :class:`~repro.serve.dnsserver.AsyncDnsServer` to forward to.  ``ecs``
    controls whether the front forwards the client's subnet (truncated to
    ``scope`` bits) or hides it behind the POP anchor.  Each POP cache
    holds at most :data:`~repro.resolver.POP_CACHE_CAPACITY` live entries.
    """

    def __init__(
        self,
        directory: Optional[ClientDirectory] = None,
        ecs: bool = True,
        scope: int = 24,
        metrics=None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if not 0 <= scope <= 32:
            raise ValueError("scope must be in [0, 32]")
        self.directory = (
            directory if directory is not None else ClientDirectory()
        )
        self.ecs = ecs
        self.scope = scope
        self._clock = clock if clock is not None else RunClock().start()
        # The wire ECS option needs a positive prefix length; scope 0
        # (or ECS off) degrades to announcing the POP anchor itself.
        self._announce_clients = ecs and scope > 0
        # The last echoed scope per (pop, qname): where to look on the
        # next query for the same name (real ECS caches keep the same
        # per-name scope memo).
        self._scope_memo: dict[tuple[str, str], int] = {}
        # Concurrent misses for the same entry coalesce onto one
        # upstream query.
        self._inflight: dict[tuple, asyncio.Future] = {}
        self._pop_memo: dict[IPv4Address, ResolverPop] = {}
        # data[2:] -> (pop, qname, announced address, the POP's query
        # counter), and (data[2:], answers, rcode, scope) -> a hit's
        # reply bytes from offset 2 on: see the module docstring.
        self._plans: dict[bytes, tuple] = {}
        self._replies: dict[tuple, bytes] = {}
        self._client: Optional[AsyncDnsClient] = None
        self._listener = Listener("resolver front", datagram=self._dispatch)
        self._tasks: set[asyncio.Task] = set()
        registry = metrics if metrics is not None else get_registry()
        self._m_queries = registry.counter(
            "resolver_front_queries_total",
            "Queries handled by the public-resolver front, per POP",
            ("pop",),
        )
        self._m_cache = registry.counter(
            "resolver_front_cache_total",
            "Shared POP cache lookups, by outcome",
            ("outcome",),
        )
        self._m_upstream = registry.counter(
            "resolver_front_upstream_total",
            "Queries the front forwarded to the authoritative server",
        )
        evictions = registry.counter(
            "resolver_front_evictions_total",
            "POP cache entries dropped on expiry or at the capacity bound",
        )
        # One cache per POP: (qname, network_value, scope) -> entry.
        self._caches = {
            pop.pop_id: TtlCache(
                POP_CACHE_CAPACITY,
                hits=self._m_cache.labels("hit"),
                misses=self._m_cache.labels("miss"),
                evictions=evictions,
            )
            for pop in DEFAULT_POPS
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def endpoint(self) -> tuple[str, int]:
        """(host, port) once started."""
        return self._listener.endpoint

    async def start(self, upstream: tuple[str, int],
                    host: str = "127.0.0.1", port: int = 0,
                    reuse_port: bool = False) -> tuple[str, int]:
        """Bind the UDP listener and connect the client to ``upstream``."""
        endpoint = await self._listener.start(host, port, reuse_port)
        self._client = await AsyncDnsClient.open(
            *upstream,
            timeout=_UPSTREAM_TIMEOUT,
            retries=_UPSTREAM_RETRIES,
            source_prefix_len=self.scope if self._announce_clients else 32,
        )
        return endpoint

    async def stop(self) -> None:
        """Close the listener, the upstream client and in-flight work."""
        await self._listener.stop()
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()
        if self._client is not None:
            self._client.close()
            self._client = None
        self._inflight.clear()

    # ------------------------------------------------------------------
    # POP attribution and cache keys
    # ------------------------------------------------------------------

    def _pop_for(self, client: Optional[IPv4Address]) -> ResolverPop:
        """The POP serving ``client`` (nearest by great circle)."""
        if client is None:
            return DEFAULT_POPS[0]
        cached = self._pop_memo.get(client)
        if cached is not None:
            return cached
        context = self.directory.context_for(client)
        pop = nearest_pop(context.coordinates)
        _remember(self._pop_memo, client, pop)
        return pop

    def _announced(self, client: Optional[IPv4Address],
                   pop: ResolverPop) -> tuple[IPv4Address, int]:
        """(address, prefix length) the front presents upstream."""
        if self._announce_clients and client is not None:
            return client, self.scope
        return pop.anchor, 32

    @staticmethod
    def _truncate(address: IPv4Address, scope: int) -> int:
        """The network value of ``address``'s ``/scope``."""
        shift = 32 - scope
        return address.value >> shift << shift

    def cache_stats(self) -> dict:
        """Plain counters for reports (work under the null registry)."""
        caches = self._caches.values()
        return {
            "hits": sum(cache.hits for cache in caches),
            "misses": sum(cache.misses for cache in caches),
            "size": sum(cache.live_size for cache in caches),
            "pops": len(caches),
        }

    # ------------------------------------------------------------------
    # query handling
    # ------------------------------------------------------------------

    def _dispatch(self, data: bytes, addr) -> None:
        """Serve one datagram, a cache hit without leaving the callback.

        A hit is looked up and answered right here — no task, no trip
        through the ready queue; a planned body (see the module
        docstring) is neither decoded nor re-encoded.  Only a miss
        becomes a task: it takes the decoded query through
        :meth:`_lookup`, which counts it, coalesces it onto a fetch in
        flight or goes upstream.
        """
        body = data[2:]
        plan = self._plans.get(body)
        if plan is None:
            self._dispatch_decoded(data, body, addr)
            return
        pop, qname, announced, queries = plan
        queries.inc()
        entry = self._caches[pop.pop_id].hit(
            self._entry_key(pop, qname, announced), self._clock()
        )
        if entry is None:
            self._spawn_miss(decode_message(data), data, addr, pop, announced)
            return
        key = (body, entry.answers, entry.rcode, entry.scope)
        tail = self._replies.get(key)
        if tail is None:
            tail = self._reply(decode_message(data), entry)[2:]
            _remember(self._replies, key, tail)
        self._send(data[:2] + tail, addr)

    def _dispatch_decoded(self, data: bytes, body: bytes, addr) -> None:
        """:meth:`_dispatch` for a body without a plan; plans it."""
        try:
            query = decode_message(data)
        except Exception:
            query = None
        if query is None or not query.questions:
            self._send(servfail_reply(data), addr)
            return
        client = (
            query.client_subnet.prefix.network
            if query.client_subnet is not None else None
        )
        pop = self._pop_for(client)
        queries = self._m_queries.labels(pop.pop_id)
        queries.inc()
        announced, _announced_len = self._announced(client, pop)
        qname = query.questions[0].name
        if query.trace_context is None and len(data) <= _MEMO_MAX_KEY_OCTETS:
            _remember(self._plans, body, (pop, qname, announced, queries))
        entry = self._caches[pop.pop_id].hit(
            self._entry_key(pop, qname, announced), self._clock()
        )
        if entry is not None:
            self._send(self._reply(query, entry), addr)
            return
        self._spawn_miss(query, data, addr, pop, announced)

    def _spawn_miss(self, query: WireMessage, data: bytes, addr,
                    pop: ResolverPop, announced: IPv4Address) -> None:
        task = asyncio.create_task(
            self._serve_miss(query, data, addr, pop, announced)
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _serve_miss(self, query: WireMessage, data: bytes, addr,
                          pop: ResolverPop, announced: IPv4Address) -> None:
        try:
            entry = await self._lookup(pop, query.questions[0].name, announced)
        except DnsClientError:
            self._send(servfail_reply(data), addr)
            return
        self._send(self._reply(query, entry), addr)

    def _send(self, reply: Optional[bytes], addr) -> None:
        if reply is not None:
            self._listener.sendto(reply, addr)

    def _reply(self, query: WireMessage, entry: _CacheEntry) -> bytes:
        """The encoded recursive answer to ``query`` out of ``entry``."""
        ecs = None
        if query.client_subnet is not None:
            # The front is the recursive here: echo the client's option
            # with the scope the cached answer is really valid for.
            ecs = ClientSubnet(
                prefix=query.client_subnet.prefix,
                scope_length=min(entry.scope, query.client_subnet.prefix.length),
            )
        return encode_message(
            WireMessage(
                message_id=query.message_id,
                is_response=True,
                authoritative=False,
                recursion_desired=query.recursion_desired,
                recursion_available=True,
                rcode=entry.rcode,
                questions=query.questions[:1],
                answers=list(entry.answers),
                client_subnet=ecs,
                trace_context=query.trace_context,
            )
        )

    def _entry_key(self, pop: ResolverPop, qname: str,
                   announced: IPv4Address) -> Optional[tuple]:
        """Where ``qname``'s entry for ``announced`` would sit in ``pop``.

        Without a scope memo nothing was ever stored for this name
        here: the ``None`` key never matches anything.
        """
        memo_scope = self._scope_memo.get((pop.pop_id, qname))
        if memo_scope is None:
            return None
        return qname, self._truncate(announced, memo_scope), memo_scope

    async def _lookup(self, pop: ResolverPop, qname: str,
                      announced: IPv4Address) -> _CacheEntry:
        """The cached (or freshly fetched) entry for one query."""
        now = self._clock()
        cache = self._caches[pop.pop_id]
        entry = cache.get(self._entry_key(pop, qname, announced), now)
        if entry is not None:
            return entry
        # Coalesce concurrent misses at the announced granularity: the
        # answer's true partition is only known once the echo arrives.
        flight_key = (
            pop.pop_id, qname,
            self._truncate(
                announced, self.scope if self._announce_clients else 32
            ),
        )
        waiter = self._inflight.get(flight_key)
        if waiter is not None:
            return await asyncio.shield(waiter)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._inflight[flight_key] = future
        try:
            entry = await self._fetch(pop, qname, announced, cache)
        except Exception as exc:
            if not future.done():
                future.set_exception(exc)
            # The exception is delivered to every waiter; retrieving it
            # here too keeps the future from logging "never retrieved".
            future.exception()
            raise
        else:
            if not future.done():
                future.set_result(entry)
            return entry
        finally:
            self._inflight.pop(flight_key, None)

    async def _fetch(self, pop: ResolverPop, qname: str,
                     announced: IPv4Address, cache: TtlCache) -> _CacheEntry:
        """One upstream round trip; stores at the echoed scope."""
        assert self._client is not None
        self._m_upstream.inc()
        response = await self._client.query(qname, announced)
        echoed = (
            response.client_subnet.scope_length
            if response.client_subnet is not None else 0
        )
        answers = tuple(response.answers)
        now = self._clock()
        entry = _CacheEntry(
            answers=answers,
            rcode=response.rcode,
            authoritative=response.authoritative,
            scope=echoed,
            expires_at=now,
        )
        if response.rcode is RCode.NOERROR and answers:
            ttl = min(record.ttl for record in answers)
            if ttl > 0:
                entry.expires_at = now + ttl
                self._scope_memo[(pop.pop_id, qname)] = echoed
                cache.put(
                    (qname, self._truncate(announced, echoed), echoed),
                    entry, now,
                )
        return entry
