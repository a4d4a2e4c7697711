"""Live authoritative DNS: the Figure 2 estate behind real sockets.

:class:`AsyncDnsServer` fronts any set of
:class:`~repro.dns.zone.AuthoritativeServer` instances — typically the
three operators of the Meta-CDN estate — over RFC 1035 wire bytes on a
loopback (or any) UDP endpoint, with the standard TCP fallback for
responses that would not fit the client's advertised UDP payload size.

The server is *authoritative only*: it answers for names its zones
cover and returns REFUSED otherwise, exactly like the in-memory
:meth:`AuthoritativeServer.query` path.  Geo-dependent policies get
their :class:`~repro.dns.query.QueryContext` from the query's EDNS
Client Subnet option through a shared :class:`ClientDirectory`, so a
resolution over the socket is byte-for-byte governed by the same
decision logic as an in-memory one.

Malformed packets never crash or hang the server: anything the wire
decoder rejects is counted, answered with SERVFAIL when a message id is
recoverable, and dropped otherwise.

A UDP query whose bytes after the id (``data[2:]``) were answered
before skips the decode and the directory scan: those bytes fix the
question, the (server, zone) that answers it, the vantage and client
address the geography comes from, the echoed ECS scope and the UDP
limit, which a per-server plan memo keeps.  The zone policy still runs
once per query at ``clock()`` — answers move with time (TTL buckets,
weight schedules, the ``a1015`` switch) — and its (rcode, answers) pick
the reply bytes, truncation applied, out of a second memo keyed by
``(data[2:], rcode, answers)``; the datagram's own id goes in front.
Only untraced, well-formed, non-REFUSED queries to a server without a
fault plane are planned; everything else takes the validating path
every time.  Both memos are bounded like the codec's
(:func:`repro.dns.wire._remember`).
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Iterable, Optional

from ..dns.query import DnsResponse, QueryContext, RCode
from ..dns.resolver import ServerMap
from ..dns.wire import (
    _MEMO_MAX_KEY_OCTETS,
    WireError,
    WireMessage,
    _remember,
    decode_message,
    encode_message,
    frame,
    reply_message,
    servfail_reply,
)
from ..dns.zone import AuthoritativeServer, Zone
from ..net.ipv4 import IPv4Address
from ..obs import get_registry, get_tracer, use_context
from .clients import ClientDirectory, Vantage
from .listener import Connection, Listener, RunClock

__all__ = ["ZoneFrontend", "AsyncDnsServer"]

_FALLBACK_UDP_PAYLOAD = 512  # RFC 1035 limit for clients without EDNS
# A UDP reply cap below what clients advertise (None = theirs); lowered
# to force the TC -> TCP fallback.
UDP_PAYLOAD_CAP: Optional[int] = None
_TCP_IDLE_TIMEOUT = 30.0


class ZoneFrontend:
    """Routes each owner name to the most specific authoritative server.

    The longest-zone-wins rule is the resolver's own
    (:class:`repro.dns.resolver.ServerMap`, memoised per name): Akamai's
    ``akadns.net`` zone answers ``appldnld.apple.com.akadns.net`` even
    though Apple's ``apple.com`` zone also matches a suffix.
    """

    def __init__(self, servers: Iterable[AuthoritativeServer]) -> None:
        servers = list(servers)
        if not servers:
            raise ValueError("a frontend needs at least one server")
        self._map = ServerMap(servers)

    def locate(self, name: str) -> tuple[Optional[AuthoritativeServer], Optional[Zone]]:
        """The (server, zone) answering for ``name`` (most specific zone)."""
        return self._map.locate(name)

    def server_for(self, name: str) -> Optional[AuthoritativeServer]:
        """The authoritative server for ``name`` (most specific zone)."""
        return self._map.locate(name)[0]

    def answer(
        self,
        query: WireMessage,
        context: QueryContext,
        ecs_scope: Optional[int] = None,
    ) -> WireMessage:
        """The response message for one decoded query.

        ``ecs_scope`` is the prefix length the geography lookup behind
        ``context`` actually used (``AsyncDnsServer`` passes its client
        directory's vantage granularity); see
        :func:`~repro.dns.wire.reply_message` for what it controls.
        """
        if not query.questions:
            raise WireError("query carries no question")
        question = query.questions[0]
        server, zone = self._map.locate(question.name)
        if server is None:
            response = DnsResponse(question=question, rcode=RCode.REFUSED)
        else:
            response = server.query_in_zone(zone, question, context)
        return reply_message(query, response, ecs_scope)


class AsyncDnsServer:
    """An asyncio authoritative DNS server (UDP with TCP fallback).

    ``clock`` supplies the simulation time stamped into query contexts
    (the Figure 2 policies are time-dependent: TTL buckets, weight
    schedules, the ``a1015`` rollout).  The default clock starts at 0
    when the server is built and advances in real seconds.
    """

    def __init__(
        self,
        servers: Iterable[AuthoritativeServer],
        directory: Optional[ClientDirectory] = None,
        clock: Optional[Callable[[], float]] = None,
        metrics=None,
        faults=None,
        tracer=None,
    ) -> None:
        self.frontend = ZoneFrontend(servers)
        self.directory = directory if directory is not None else ClientDirectory()
        self._clock = clock if clock is not None else RunClock().start()
        # Fault plane (repro.faults.FaultInjector); None = zero-overhead
        # healthy path.  DNS faults target the *operator* whose zone
        # answers the question (drop, delay, SERVFAIL, stale answers).
        self._faults = faults
        # Spans adopt the wire trace context of each query (EDNS0
        # option), parenting server-side work under the client's
        # resolve span.
        self._tracer = tracer if tracer is not None else get_tracer()
        self._listener = Listener(
            "server", datagram=self._handle_udp,
            connection=lambda listener: _FrameConnection(listener, self),
        )
        # data[2:] -> (question, server, zone, vantage, client, ECS
        # scope, UDP limit), and (data[2:], rcode, answers) -> (reply
        # bytes from offset 2 on, truncated?): see the module docstring.
        self._plans: dict[bytes, tuple] = {}
        self._replies: dict[tuple, tuple[bytes, bool]] = {}

        registry = metrics if metrics is not None else get_registry()
        self._m_queries = registry.counter(
            "serve_dns_queries_total",
            "Wire DNS queries handled by the serving layer",
            ("transport",),
        )
        self._m_udp = self._m_queries.labels("udp")
        self._m_tcp = self._m_queries.labels("tcp")
        self._m_truncated = registry.counter(
            "serve_dns_truncated_total",
            "UDP responses sent with the TC bit (client should retry TCP)",
        )
        self._m_malformed = registry.counter(
            "serve_dns_malformed_total",
            "Queries the wire decoder rejected",
        )
        self._m_refused = registry.counter(
            "serve_dns_refused_total",
            "Queries for names outside every hosted zone",
        )
        self._m_handle = registry.histogram(
            "serve_dns_handle_seconds",
            "Server-side handling time per DNS query",
            buckets=(0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025,
                     0.005, 0.01, 0.025, 0.05, 0.1),
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def endpoint(self) -> tuple[str, int]:
        """(host, port) once started."""
        return self._listener.endpoint

    async def start(self, host: str = "127.0.0.1", port: int = 0,
                    reuse_port: bool = False) -> tuple[str, int]:
        """Bind UDP and TCP on the same port; returns the endpoint.

        ``reuse_port`` lets N server processes share that port (see
        :meth:`Listener.start`).
        """
        return await self._listener.start(host, port, reuse_port)

    async def stop(self) -> None:
        """Close both listeners and drain open TCP connections."""
        await self._listener.stop()

    # ------------------------------------------------------------------
    # query handling
    # ------------------------------------------------------------------

    def _where(
        self, query: WireMessage
    ) -> tuple[Vantage, IPv4Address, Optional[int]]:
        """(vantage, client, ECS scope) the answer to ``query`` is for.

        The client is the ECS prefix's network and the vantage the one
        whose block holds it; without ECS, or when no block does, the
        directory's first vantage gives the default geography.  The
        scope is what goes back in the echoed ECS option: the matched
        vantage's prefix length (the granularity the lookup used), 0
        when the default geography answered — i.e. the answer did not
        depend on the client at all — and ``None`` without ECS.
        """
        default = self.directory.vantages[0]
        if query.client_subnet is None:
            return default, default.prefix.network, None
        client = query.client_subnet.prefix.network
        vantage = self.directory.vantage_for(client)
        if vantage is None:
            return default, client, 0
        return vantage, client, vantage.prefix.length

    def _dns_fault(self, query: WireMessage) -> tuple[Optional[str], float, float]:
        """(action, delay, staleness) the fault plane injects for ``query``."""
        question = query.questions[0] if query.questions else None
        operator = None
        if question is not None:
            server = self.frontend.server_for(question.name)
            if server is not None:
                operator = server.operator
        name = question.name if question is not None else ""
        return self._faults.dns_fault(operator, (query.message_id, name))

    def _answer_bytes(
        self, payload: bytes
    ) -> tuple[Optional[bytes], Optional[WireMessage], Optional[WireMessage], float]:
        """Decode, answer, encode: (encoded reply, response, query, delay).

        Malformed or policy-breaking input yields a bare SERVFAIL (or
        ``None`` when not even a message id is recoverable) — a hostile
        packet must never take the transport task down.  ``delay`` is
        the fault-injected send delay (0.0 without a fault plane).
        """
        try:
            query = decode_message(payload)
        except Exception:
            self._m_malformed.inc()
            return servfail_reply(payload), None, None, 0.0
        trace = query.trace_context
        if trace is None or not self._tracer.enabled:
            return self._answer_decoded(query, payload, None)
        # Adopt the wire context for the duration of the answer: the
        # span (and everything it emits) joins the client's chain, and
        # unsampled traces collapse to a counted no-op.
        with use_context(trace):
            with self._tracer.span("serve.dns.query", ts=self._clock()) as span:
                return self._answer_decoded(query, payload, span)

    def _answer_decoded(
        self, query: WireMessage, payload: bytes, span
    ) -> tuple[Optional[bytes], Optional[WireMessage], Optional[WireMessage], float]:
        delay = 0.0
        if span is not None and query.questions:
            span.annotate(qname=query.questions[0].name)
        try:
            staleness = 0.0
            if self._faults is not None:
                action, delay, staleness = self._dns_fault(query)
                if action == "drop":
                    if span is not None:
                        span.annotate(outcome="drop")
                    return None, None, None, 0.0
                if action == "servfail":
                    if span is not None:
                        span.annotate(outcome="servfail-fault")
                    return servfail_reply(payload), None, None, delay
            vantage, client, scope = self._where(query)
            now = self._clock()
            if staleness > 0.0:
                # Stale-answer fault: the zone answers as of an earlier
                # instant (a stuck snapshot), never before time zero.
                now = max(0.0, now - staleness)
            response = self.frontend.answer(
                query, vantage.context(client, now), ecs_scope=scope
            )
        except Exception:
            self._m_malformed.inc()
            if span is not None:
                span.annotate(outcome="malformed")
            return servfail_reply(payload), None, None, delay
        if response.rcode is RCode.REFUSED:
            self._m_refused.inc()
        if span is not None:
            span.annotate(
                rcode=response.rcode.name, answers=len(response.answers)
            )
        return encode_message(response), response, query, delay

    def handle_datagram(self, payload: bytes) -> Optional[bytes]:
        """Answer one UDP datagram (truncating oversize responses)."""
        return self.handle_datagram_timed(payload)[0]

    def handle_datagram_timed(self, payload: bytes) -> tuple[Optional[bytes], float]:
        """Like :meth:`handle_datagram`, plus the injected send delay."""
        started = time.perf_counter()
        self._m_udp.inc()
        body = payload[2:]
        plan = self._plans.get(body)
        if plan is None:
            reply, truncated, delay = self._answer_datagram(payload, body)
        else:
            reply, truncated = self._replay(plan, payload, body)
            delay = 0.0
        if truncated:
            self._m_truncated.inc()
        self._m_handle.observe(time.perf_counter() - started)
        return reply, delay

    def _answer_datagram(
        self, payload: bytes, body: bytes
    ) -> tuple[Optional[bytes], bool, float]:
        """The validating path: (reply, truncated, delay); plans ``body``."""
        encoded, response, query, delay = self._answer_bytes(payload)
        if encoded is None or response is None or query is None:
            return encoded, False, delay
        limit = query.udp_payload_size or _FALLBACK_UDP_PAYLOAD
        if UDP_PAYLOAD_CAP is not None:
            limit = min(limit, UDP_PAYLOAD_CAP)
        if (self._faults is None and query.trace_context is None
                and response.rcode is not RCode.REFUSED
                and len(payload) <= _MEMO_MAX_KEY_OCTETS):
            question = query.questions[0]
            server, zone = self.frontend.locate(question.name)
            vantage, client, scope = self._where(query)
            _remember(self._plans, body,
                      (question, server, zone, vantage, client, scope, limit))
        return (*self._fit(encoded, response, limit), delay)

    def _replay(self, plan: tuple, payload: bytes,
                body: bytes) -> tuple[Optional[bytes], bool]:
        """A planned query: the policy at ``clock()``, the reply from bytes."""
        question, server, zone, vantage, client, scope, limit = plan
        try:
            response = server.query_in_zone(
                zone, question, vantage.context(client, self._clock())
            )
        except Exception:
            self._m_malformed.inc()
            return servfail_reply(payload), False
        key = (body, response.rcode, response.answers)
        known = self._replies.get(key)
        if known is None:
            reply = reply_message(decode_message(payload), response, scope)
            encoded, truncated = self._fit(encode_message(reply), reply, limit)
            known = (encoded[2:], truncated)
            _remember(self._replies, key, known)
        tail, truncated = known
        return payload[:2] + tail, truncated

    @staticmethod
    def _fit(encoded: bytes, reply: WireMessage,
             limit: int) -> tuple[bytes, bool]:
        """``encoded``, or its bare TC form when over ``limit``: (bytes, TC)."""
        if len(encoded) <= limit:
            return encoded, False
        return encode_message(
            WireMessage(
                message_id=reply.message_id,
                is_response=True,
                authoritative=reply.authoritative,
                truncated=True,
                recursion_desired=reply.recursion_desired,
                rcode=reply.rcode,
                questions=list(reply.questions),
                client_subnet=reply.client_subnet,
            )
        ), True

    def _handle_udp(self, data: bytes, addr) -> None:
        reply, delay = self.handle_datagram_timed(data)
        if reply is None:
            return
        if delay > 0.0:
            asyncio.get_running_loop().call_later(
                delay, self._listener.sendto, reply, addr
            )
        else:
            self._listener.sendto(reply, addr)

    def _handle_tcp(self, connection: "_FrameConnection", payload: bytes) -> None:
        """Answer one length-prefixed query off a TCP connection."""
        started = time.perf_counter()
        self._m_tcp.inc()
        encoded, _response, _query, delay = self._answer_bytes(payload)
        self._m_handle.observe(time.perf_counter() - started)
        if encoded is None:
            return
        if delay > 0.0:
            connection.hold(delay, connection.transport.write, frame(encoded))
        else:
            connection.transport.write(frame(encoded))


class _FrameConnection(Connection):
    """A TCP client of the server: length-prefixed queries (RFC 1035
    §4.2.2) until it hangs up, each answered in turn."""

    def __init__(self, listener: Listener, server: AsyncDnsServer) -> None:
        super().__init__(listener, _TCP_IDLE_TIMEOUT)
        self._server = server
        self._buffer = bytearray()

    def _received(self, data: bytes) -> None:
        self._buffer += data

    def _next(self) -> bool:
        buffer = self._buffer
        if len(buffer) < 2:
            return False
        end = 2 + ((buffer[0] << 8) | buffer[1])
        if len(buffer) < end:
            return False
        payload = bytes(buffer[2:end])
        del buffer[:end]
        self._server._handle_tcp(self, payload)
        return True
