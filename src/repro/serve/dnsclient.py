"""The wire DNS client: a stub resolver over UDP with TCP fallback.

:class:`AsyncDnsClient` is what every live component that *asks*
questions uses — the load generator's devices, the public-resolver
front's upstream side: one UDP socket, in-flight queries matched by
message id, an EDNS Client Subnet option naming the acting client,
timeouts and retries under one timer per client, and the full Figure 2
CNAME chase as :meth:`resolve`.
"""

from __future__ import annotations

import asyncio
import math
import struct
from dataclasses import dataclass
from typing import Optional

from ..dns.query import RCode
from ..dns.records import RecordType, ResourceRecord
from ..dns.wire import (
    WireError,
    WireMessage,
    decode_message,
    encode_query,
    frame,
    read_frame,
)
from ..net.ipv4 import IPv4Address
from ..obs import current_context, get_registry, get_tracer
from .deadline import Alarm, deadline
from .udp import open_tcp, open_udp

__all__ = ["DnsClientError", "WireResolution", "AsyncDnsClient"]

_MAX_CHAIN = 16


class DnsClientError(RuntimeError):
    """A query failed after all retries (timeout, SERVFAIL, bad chain)."""


@dataclass(frozen=True)
class WireResolution:
    """A CNAME chase completed over the wire.

    Mirrors the read API of :class:`repro.dns.resolver.Resolution` so
    equivalence tests can compare the two hop for hop.  The mirror is
    exact when every hop holds one CNAME or only A records (the whole
    Apple estate).  Where a wire answer carries more — a server that
    followed its own CNAME and sent the target's A records along — the
    views here list every CNAME and every address received, while
    ``Resolution``'s name only the walk its chase took.
    """

    question_name: str
    steps: tuple[tuple[ResourceRecord, ...], ...]

    @property
    def records(self) -> tuple[ResourceRecord, ...]:
        """Every answer record, in chase order."""
        return tuple(record for step in self.steps for record in step)

    @property
    def cname_chain(self) -> tuple[ResourceRecord, ...]:
        """The CNAME records followed, in order."""
        return tuple(r for r in self.records if r.rtype is RecordType.CNAME)

    @property
    def addresses(self) -> tuple[IPv4Address, ...]:
        """The final A record addresses."""
        return tuple(
            r.address for r in self.records if r.rtype is RecordType.A
        )

    @property
    def chain_names(self) -> tuple[str, ...]:
        """All names visited, starting with the question name."""
        names = [self.question_name]
        for record in self.cname_chain:
            names.append(record.target)
        return tuple(names)

    @property
    def final_name(self) -> str:
        """The terminal name of the chain."""
        return self.chain_names[-1]


class _DnsClientProtocol(asyncio.DatagramProtocol):
    """Matches responses to waiters by DNS message id.

    ``waiters`` maps each id in flight to ``(due, waiter)`` in send
    order, the due time being the attempt's send time plus timeout.
    """

    def __init__(self) -> None:
        self.waiters: dict[int, tuple[float, asyncio.Future]] = {}
        self.transport: Optional[asyncio.DatagramTransport] = None

    def connection_made(self, transport) -> None:  # pragma: no cover - trivial
        self.transport = transport

    def datagram_received(self, data: bytes, addr) -> None:
        if len(data) < 2:
            return
        (message_id,) = struct.unpack("!H", data[:2])
        entry = self.waiters.pop(message_id, None)
        if entry is not None and not entry[1].done():
            entry[1].set_result(data)

    def error_received(self, exc) -> None:  # pragma: no cover - platform dependent
        pass


class AsyncDnsClient:
    """A stub resolver speaking RFC 1035 over UDP with TCP fallback.

    One client instance serves any number of concurrent resolutions:
    in-flight queries are matched by message id.  Each query carries an
    EDNS Client Subnet option for the acting client so the server's
    geo policies see who is asking.

    Every UDP attempt times out under one :class:`Alarm` per client, not
    a timer per attempt.  The in-flight waits are registered as
    ``(due, waiter)`` in send order; one client has one timeout, so due
    times are monotone in send order and the oldest wait is always due
    first.  An attempt arms the alarm only when nothing else is in
    flight, and an ended attempt unregisters its wait without a timer
    call: an answered query makes no ``call_at`` and no ``cancel``, and
    the pending timer lapses, re-arming itself for a later wait.  When
    it goes off, every overdue waiter gets ``asyncio.TimeoutError`` and
    the alarm is re-armed for the oldest wait still pending.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 2.0,
        retries: int = 2,
        source_prefix_len: int = 24,
        metrics=None,
        tracer=None,
    ) -> None:
        if not 0 < source_prefix_len <= 32:
            raise ValueError("source_prefix_len must be in (0, 32]")
        # A NaN or infinite timeout must never reach the loop's timer
        # heap, and a non-positive one times out every attempt unanswered.
        if not 0.0 < timeout < math.inf:
            raise ValueError("timeout must be positive and finite")
        if retries < 0:
            raise ValueError("retries must be non-negative")
        self._host = host
        self._port = port
        self._timeout = timeout
        self._retries = retries
        self._source_prefix_len = source_prefix_len
        # Queries are stamped with the ambient trace context (EDNS0
        # option); the tracer supplies the current span id as the
        # remote parent the server's span attaches under.
        self._tracer = tracer if tracer is not None else get_tracer()
        self._protocol: Optional[_DnsClientProtocol] = None
        self._last_id = 0
        self._alarm = Alarm(self._expire)
        # Plain mirrors of the registry counters so reports work under
        # the null registry too.
        self.queries_sent = 0
        self.timeouts = 0
        self.tcp_fallbacks = 0
        registry = metrics if metrics is not None else get_registry()
        self._m_queries = registry.counter(
            "loadgen_dns_queries_total", "Wire DNS queries issued by the client"
        )
        self._m_timeouts = registry.counter(
            "loadgen_dns_timeouts_total", "Queries that timed out (incl. retried)"
        )
        self._m_tcp = registry.counter(
            "loadgen_dns_tcp_fallbacks_total",
            "Truncated UDP answers retried over TCP",
        )

    @classmethod
    async def open(cls, host: str, port: int, **kwargs) -> "AsyncDnsClient":
        """Create and connect a client to one server endpoint."""
        client = cls(host, port, **kwargs)
        _transport, protocol = await open_udp(
            _DnsClientProtocol, remote_addr=(host, port)
        )
        client._protocol = protocol
        return client

    def close(self) -> None:
        """Close the UDP endpoint, drop the client's timer and fail any
        in-flight waiters."""
        self._alarm.close()
        if self._protocol is not None:
            # Waiters still registered belong to tasks that were
            # cancelled (or are about to be): cancel the futures so
            # nothing holds a reference into a dead transport.
            for _due, waiter in list(self._protocol.waiters.values()):
                if not waiter.done():
                    waiter.cancel()
            self._protocol.waiters.clear()
            if self._protocol.transport is not None:
                self._protocol.transport.close()
        self._protocol = None

    def _next_id(self) -> int:
        """The next free DNS message id.

        Ids cycle over 1..65535 (0 is never used) and an id whose
        waiter is still registered is skipped, so two in-flight lookups
        on this client can never share one — a response could
        otherwise complete the wrong waiter.
        """
        in_flight = self._protocol.waiters if self._protocol is not None else ()
        for _ in range(0xFFFF):
            self._last_id = self._last_id % 0xFFFF + 1
            if self._last_id not in in_flight:
                return self._last_id
        raise DnsClientError("all 65535 message ids are in flight")

    async def query(self, name: str, client: IPv4Address) -> WireMessage:
        """One A query/response exchange (UDP, TCP on truncation)."""
        if self._protocol is None or self._protocol.transport is None:
            raise DnsClientError("client is not connected")
        context = current_context()
        trace = (
            context.child(self._tracer.current_span_id())
            if context is not None else None
        )
        last_error = "no attempt made"
        for _attempt in range(self._retries + 1):
            message_id = self._next_id()
            payload = encode_query(
                message_id, name, client, self._source_prefix_len, trace
            )
            loop = asyncio.get_running_loop()
            waiter = loop.create_future()
            waiters = self._protocol.waiters
            # Stamped before arming, so the alarm is never due before it.
            due = loop.time() + self._timeout
            if not waiters:
                self._alarm.arm(self._timeout)
            waiters[message_id] = (due, waiter)
            self._protocol.transport.sendto(payload)
            self.queries_sent += 1
            self._m_queries.inc()
            try:
                raw = await waiter
            except asyncio.TimeoutError:
                self.timeouts += 1
                self._m_timeouts.inc()
                last_error = f"timeout after {self._timeout}s"
                continue
            finally:
                # datagram_received and the alarm unregister answered
                # and overdue waits, but the caller being *cancelled*
                # while awaiting (a generator torn down mid-ramp) must
                # not leave the future registered forever.
                waiters.pop(message_id, None)
                if not waiters:
                    self._alarm.disarm()
            try:
                response = decode_message(raw)
            except WireError as exc:
                last_error = f"undecodable response: {exc}"
                continue
            if response.truncated:
                self.tcp_fallbacks += 1
                self._m_tcp.inc()
                response = await self._query_tcp(payload)
            return response
        raise DnsClientError(f"query for {name!r} failed: {last_error}")

    def _expire(self) -> None:
        """The alarm went off: time out every overdue wait, then re-arm
        for the oldest wait still pending."""
        waiters = self._protocol.waiters
        now = asyncio.get_running_loop().time()
        while waiters:
            message_id, (due, waiter) = next(iter(waiters.items()))
            if due > now:
                self._alarm.arm(due - now)
                return
            # Unregistered here, so a send before the task resumes
            # finds nothing in flight and arms the alarm anew.
            del waiters[message_id]
            if not waiter.done():
                waiter.set_exception(asyncio.TimeoutError())

    async def _query_tcp(self, payload: bytes) -> WireMessage:
        """Re-issue one already-encoded query over TCP."""
        writer = None
        try:
            # One deadline for the exchange: connect, send, read.
            with deadline(self._timeout):
                reader, writer = await open_tcp(self._host, self._port)
                writer.write(frame(payload))
                await writer.drain()
                raw = await read_frame(reader)
        except asyncio.TimeoutError as exc:
            raise DnsClientError(f"TCP fallback failed: {exc!r}") from exc
        finally:
            if writer is not None:
                writer.close()
                try:
                    await writer.wait_closed()
                except OSError:  # pragma: no cover - the peer reset first
                    pass
        if raw is None:
            raise DnsClientError("TCP fallback failed: connection closed early")
        self.queries_sent += 1
        self._m_queries.inc()
        return decode_message(raw)

    async def resolve(self, name: str, client: IPv4Address) -> WireResolution:
        """Chase the CNAME chain from ``name`` down to A records."""
        current = name
        steps: list[tuple[ResourceRecord, ...]] = []
        seen = {current}
        for _hop in range(_MAX_CHAIN):
            response = await self.query(current, client)
            if response.rcode not in (RCode.NOERROR, RCode.NXDOMAIN):
                raise DnsClientError(
                    f"{current!r} answered {response.rcode.name}"
                )
            records = tuple(response.answers)
            steps.append(records)
            if any(r.rtype is RecordType.A for r in records):
                return WireResolution(question_name=name, steps=tuple(steps))
            cnames = [r for r in records if r.rtype is RecordType.CNAME]
            if not cnames:
                # Dead end (NODATA / NXDOMAIN): return what we have.
                return WireResolution(question_name=name, steps=tuple(steps))
            current = cnames[0].target
            if current in seen:
                raise DnsClientError(f"CNAME loop at {current!r}")
            seen.add(current)
        raise DnsClientError(f"chain longer than {_MAX_CHAIN} for {name!r}")
