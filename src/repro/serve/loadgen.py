"""Closed-loop load generation against the live serving layer.

The measured event is a flash crowd: millions of devices resolving
``appldnld.apple.com`` and pulling ranged slices of a multi-gigabyte
image.  :class:`LoadGenerator` replays that shape against a live
:mod:`repro.serve` cluster — each worker acts as one device after
another: sample a client from the vantage directory (regional mix from
the adoption model), walk the full Figure 2 CNAME chain over UDP
(falling back to TCP on truncation), then download a range from the
resolved vip over a pooled keep-alive connection.

The loop is *closed*: a worker issues its next request only after the
previous one completes, and a bounded semaphore caps total in-flight
work, so the generator exerts backpressure instead of flooding the
event loop.  Timeouts and retries are per-query; a request that fails
after retries is counted and sampled, never raised out of the run.
"""

from __future__ import annotations

import asyncio
import itertools
import struct
import time
from dataclasses import dataclass, field
from typing import Optional

from ..dns.query import Question, RCode
from ..dns.records import RecordType, ResourceRecord
from ..dns.wire import ClientSubnet, WireError, WireMessage, decode_message, encode_message
from ..http.messages import Headers
from ..net.ipv4 import IPv4Address, IPv4Prefix
from ..obs import (
    TraceContext,
    current_context,
    get_registry,
    get_tracer,
    new_trace_id,
    sample_trace,
    use_context,
)
from ..obs.registry import HistogramChild
from ..dns.policies import stable_fraction
from ..workload.arrival import ArrivalSchedule
from .clients import ClientDirectory
from .resilience import BackoffPolicy, CircuitBreaker, HedgePolicy
from .udp import open_udp

__all__ = [
    "DnsClientError",
    "WireResolution",
    "AsyncDnsClient",
    "PooledHttpClient",
    "LoadConfig",
    "LoadReport",
    "LoadGenerator",
    "merge_load_reports",
]

_MAX_CHAIN = 16
_LATENCY_BUCKETS = (
    0.0002, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5,
)


class DnsClientError(RuntimeError):
    """A query failed after all retries (timeout, SERVFAIL, bad chain)."""


@dataclass(frozen=True)
class WireResolution:
    """A CNAME chase completed over the wire.

    Mirrors the read API of :class:`repro.dns.resolver.Resolution` so
    equivalence tests can compare the two hop for hop.
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
    """Matches responses to waiters by DNS message id."""

    def __init__(self) -> None:
        self.waiters: dict[int, asyncio.Future] = {}
        self.transport: Optional[asyncio.DatagramTransport] = None

    def connection_made(self, transport) -> None:  # pragma: no cover - trivial
        self.transport = transport

    def datagram_received(self, data: bytes, addr) -> None:
        if len(data) < 2:
            return
        (message_id,) = struct.unpack("!H", data[:2])
        waiter = self.waiters.pop(message_id, None)
        if waiter is not None and not waiter.done():
            waiter.set_result(data)

    def error_received(self, exc) -> None:  # pragma: no cover - platform dependent
        pass


class AsyncDnsClient:
    """A stub resolver speaking RFC 1035 over UDP with TCP fallback.

    One client instance serves any number of concurrent resolutions:
    in-flight queries are matched by message id.  Each query carries an
    EDNS Client Subnet option for the acting client so the server's
    geo policies see who is asking.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 2.0,
        retries: int = 2,
        source_prefix_len: int = 24,
        metrics=None,
        backoff: Optional[BackoffPolicy] = None,
        hedge: Optional[HedgePolicy] = None,
        tracer=None,
    ) -> None:
        if not 0 < source_prefix_len <= 32:
            raise ValueError("source_prefix_len must be in (0, 32]")
        self._host = host
        self._port = port
        self._timeout = timeout
        self._retries = retries
        self._source_prefix_len = source_prefix_len
        # Resilience: exponential backoff between retry attempts (None =
        # the legacy immediate retry) and hedged GSLB lookups.
        self._backoff = backoff
        self._hedge = hedge
        # Queries are stamped with the ambient trace context (EDNS0
        # option); the tracer supplies the current span id as the
        # remote parent the server's span attaches under.
        self._tracer = tracer if tracer is not None else get_tracer()
        self._protocol: Optional[_DnsClientProtocol] = None
        self._last_id = 0
        # Plain mirrors of the registry counters so reports work under
        # the null registry too.
        self.queries_sent = 0
        self.timeouts = 0
        self.tcp_fallbacks = 0
        self.hedged_queries = 0
        self.hedge_wins = 0
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
        self._m_hedged = registry.counter(
            "loadgen_dns_hedged_total",
            "GSLB lookups that launched a hedge to the second name",
        )
        self._m_hedge_wins = registry.counter(
            "loadgen_dns_hedge_wins_total",
            "Hedged lookups where the second name answered first",
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
        """Close the UDP endpoint and fail any in-flight waiters."""
        if self._protocol is not None:
            # Waiters still registered belong to tasks that were
            # cancelled (or are about to be): cancel the futures so
            # nothing holds a reference into a dead transport.
            for waiter in list(self._protocol.waiters.values()):
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

    async def query(self, name: str, client: IPv4Address,
                    rtype: RecordType = RecordType.A) -> WireMessage:
        """One query/response exchange (UDP, TCP on truncation)."""
        if self._protocol is None or self._protocol.transport is None:
            raise DnsClientError("client is not connected")
        ecs = ClientSubnet(IPv4Prefix.containing(client, self._source_prefix_len))
        context = current_context()
        trace = (
            context.child(self._tracer.current_span_id())
            if context is not None else None
        )
        last_error = "no attempt made"
        for _attempt in range(self._retries + 1):
            if _attempt > 0 and self._backoff is not None:
                await asyncio.sleep(self._backoff.delay(_attempt - 1, name))
            message_id = self._next_id()
            payload = encode_message(
                WireMessage(
                    message_id=message_id,
                    questions=[Question(name, rtype)],
                    client_subnet=ecs,
                    trace_context=trace,
                )
            )
            waiter = asyncio.get_running_loop().create_future()
            self._protocol.waiters[message_id] = waiter
            self._protocol.transport.sendto(payload)
            self.queries_sent += 1
            self._m_queries.inc()
            try:
                raw = await asyncio.wait_for(waiter, timeout=self._timeout)
            except asyncio.TimeoutError:
                self.timeouts += 1
                self._m_timeouts.inc()
                last_error = f"timeout after {self._timeout}s"
                continue
            finally:
                # The success path pops the waiter in datagram_received,
                # but a timeout — or the caller being *cancelled* while
                # awaiting (a generator torn down mid-ramp) — must not
                # leave the future registered forever.
                self._protocol.waiters.pop(message_id, None)
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

    async def _query_tcp(self, payload: bytes) -> WireMessage:
        """Re-issue one already-encoded query over TCP."""
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(self._host, self._port), timeout=self._timeout
        )
        try:
            writer.write(struct.pack("!H", len(payload)) + payload)
            await writer.drain()
            header = await asyncio.wait_for(
                reader.readexactly(2), timeout=self._timeout
            )
            (length,) = struct.unpack("!H", header)
            raw = await asyncio.wait_for(
                reader.readexactly(length), timeout=self._timeout
            )
        except (asyncio.TimeoutError, asyncio.IncompleteReadError) as exc:
            raise DnsClientError(f"TCP fallback failed: {exc}") from exc
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - teardown race
                pass
        self.queries_sent += 1
        self._m_queries.inc()
        return decode_message(raw)

    async def _query_hedged(self, name: str, alternate: str,
                            client: IPv4Address) -> WireMessage:
        """Race ``name`` against ``alternate`` after the latency budget.

        The primary query runs alone until ``hedge.budget`` seconds
        elapse; past that a second query for the alternate GSLB name
        launches and whichever completes first wins.  The loser is
        cancelled — its in-flight waiter is cleaned up by the timeout
        path, so no message-id leaks.
        """
        assert self._hedge is not None
        primary = asyncio.ensure_future(self.query(name, client))
        try:
            return await asyncio.wait_for(
                asyncio.shield(primary), timeout=self._hedge.budget
            )
        except asyncio.TimeoutError:
            pass
        except asyncio.CancelledError:
            # The *caller* was cancelled mid-budget (fleet teardown).
            # The shield deliberately kept ``primary`` alive — reap it
            # here or it leaks as a forever-pending task.
            primary.cancel()
            await asyncio.gather(primary, return_exceptions=True)
            raise
        except DnsClientError:
            # Primary failed outright within budget: go straight to the
            # alternate name rather than giving up.
            self.hedged_queries += 1
            self._m_hedged.inc()
            self.hedge_wins += 1
            self._m_hedge_wins.inc()
            return await self.query(alternate, client)
        self.hedged_queries += 1
        self._m_hedged.inc()
        fallback = asyncio.ensure_future(self.query(alternate, client))
        pending: set[asyncio.Future] = {primary, fallback}
        try:
            while pending:
                done, pending = await asyncio.wait(
                    pending, return_when=asyncio.FIRST_COMPLETED
                )
                # Prefer the primary when both land in the same wake-up.
                for winner in sorted(done, key=lambda t: t is not primary):
                    if winner.exception() is None:
                        if winner is fallback:
                            self.hedge_wins += 1
                            self._m_hedge_wins.inc()
                        return winner.result()
                if not pending:
                    # Both failed; surface the primary's error.
                    raise primary.exception() or DnsClientError(
                        f"hedged query for {name!r} failed"
                    )
        finally:
            for task in (primary, fallback):
                if not task.done():
                    task.cancel()
            await asyncio.gather(primary, fallback, return_exceptions=True)
        raise DnsClientError(f"hedged query for {name!r} failed")

    async def resolve(self, name: str, client: IPv4Address) -> WireResolution:
        """Chase the CNAME chain from ``name`` down to A records.

        When a :class:`~repro.serve.resilience.HedgePolicy` is set and
        the chase reaches one of the two published GSLB names, the
        lookup is hedged against the other name past the latency budget
        — mirroring a client falling back to ``b.gslb.applimg.com``.
        """
        current = name
        steps: list[tuple[ResourceRecord, ...]] = []
        seen = {current}
        for _hop in range(_MAX_CHAIN):
            alternate = (
                self._hedge.hedge_name(current) if self._hedge is not None else None
            )
            if alternate is not None and alternate not in seen:
                response = await self._query_hedged(current, alternate, client)
            else:
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


class PooledHttpClient:
    """A keep-alive HTTP/1.1 client with a bounded connection pool."""

    def __init__(self, host: str, port: int, pool_size: int = 16,
                 timeout: float = 5.0, tracer=None) -> None:
        if pool_size <= 0:
            raise ValueError("pool_size must be positive")
        self._host = host
        self._port = port
        self._timeout = timeout
        self._tracer = tracer if tracer is not None else get_tracer()
        self._pool: asyncio.LifoQueue = asyncio.LifoQueue(maxsize=pool_size)
        self._created = 0
        self._pool_size = pool_size
        # Every writer ever opened, pooled *or checked out*: close()
        # must find connections a cancelled task abandoned mid-request,
        # or their sockets leak past the run.
        self._writers: set[asyncio.StreamWriter] = set()

    async def _acquire(self):
        try:
            return self._pool.get_nowait()
        except asyncio.QueueEmpty:
            pass
        connection = await asyncio.wait_for(
            asyncio.open_connection(self._host, self._port),
            timeout=self._timeout,
        )
        self._writers.add(connection[1])
        return connection

    def _release(self, connection) -> None:
        try:
            self._pool.put_nowait(connection)
        except asyncio.QueueFull:
            self._discard(connection)

    def _discard(self, connection) -> None:
        self._writers.discard(connection[1])
        connection[1].close()

    async def get(
        self,
        path: str,
        host: str,
        vip: IPv4Address,
        client: IPv4Address,
        range_bytes: Optional[tuple[int, int]] = None,
    ) -> tuple[int, Headers, int]:
        """One GET; returns (status, headers, body length received)."""
        connection = await self._acquire()
        reader, writer = connection
        request = [
            f"GET {path} HTTP/1.1",
            f"Host: {host}",
            f"X-Vip: {vip}",
            f"X-Client: {client}",
            "Connection: keep-alive",
        ]
        context = current_context()
        if context is not None:
            # Propagate the trace with the fetch span as remote parent.
            carrier = context.child(self._tracer.current_span_id())
            request.append(f"Traceparent: {carrier.to_traceparent()}")
        if range_bytes is not None:
            request.append(f"Range: bytes={range_bytes[0]}-{range_bytes[1]}")
        try:
            writer.write(("\r\n".join(request) + "\r\n\r\n").encode("latin-1"))
            await writer.drain()
            status, headers, body_length = await asyncio.wait_for(
                self._read_response(reader), timeout=self._timeout
            )
        except Exception:
            self._discard(connection)
            raise
        if (headers.get("Connection") or "").lower() == "close":
            self._discard(connection)
        else:
            self._release(connection)
        return status, headers, body_length

    @staticmethod
    async def _read_response(reader: asyncio.StreamReader) -> tuple[int, Headers, int]:
        status_line = (await reader.readline()).decode("latin-1").strip()
        parts = status_line.split(" ", 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise ConnectionError(f"malformed status line: {status_line!r}")
        status = int(parts[1])
        headers = Headers()
        while True:
            line = (await reader.readline()).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            name, sep, value = line.partition(":")
            if sep:
                headers.add(name.strip(), value.strip())
        length = int(headers.get("Content-Length") or 0)
        received = 0
        while received < length:
            chunk = await reader.read(min(65536, length - received))
            if not chunk:
                raise ConnectionError("body ended early")
            received += len(chunk)
        return status, headers, received

    async def close(self) -> None:
        """Close every connection — pooled or abandoned — and wait.

        Closing without awaiting ``wait_closed`` leaves transports to
        be reaped by GC after the loop is gone, which surfaces as
        ``ResourceWarning: unclosed transport`` at scale.  The wait is
        what makes a fleet teardown FD-clean.
        """
        while True:
            try:
                self._pool.get_nowait()
            except asyncio.QueueEmpty:
                break
        writers, self._writers = list(self._writers), set()
        for writer in writers:
            writer.close()

        async def _wait(writer: asyncio.StreamWriter) -> None:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - race
                pass

        if writers:
            await asyncio.gather(*(_wait(w) for w in writers))


@dataclass
class LoadConfig:
    """Shape and limits of one load-generation run."""

    requests: int = 5000
    concurrency: int = 64
    max_in_flight: Optional[int] = None  # defaults to concurrency
    entry_point: str = "appldnld.apple.com"
    object_count: int = 32
    range_bytes: int = 65536
    dns_timeout: float = 2.0
    http_timeout: float = 5.0
    retries: int = 2
    source_prefix_len: int = 24
    # Client-side resilience (see repro.serve.resilience).  A cached
    # resolution older than ``resolution_max_age`` (the 15 s selection
    # TTL) is re-resolved instead of reused across HTTP retries.
    backoff: BackoffPolicy = field(default_factory=BackoffPolicy)
    hedge: Optional[HedgePolicy] = field(default_factory=HedgePolicy)
    http_retries: int = 1
    resolution_max_age: float = 15.0
    breaker_failures: int = 5
    breaker_cooldown: float = 1.0
    # Fraction of traces recorded when a tracer is active; the decision
    # is deterministic per trace id, so client and servers agree.
    trace_sample: float = 1.0
    # Open-loop mode: when an arrival schedule is set, requests fire at
    # the schedule's times regardless of completions (``requests`` and
    # ``concurrency`` stop driving the count — they only size the
    # connection pool and the in-flight cap).  ``arrival_offset`` /
    # ``arrival_stride`` select this process's slice of a fleet-shared
    # schedule.  Arrivals past the in-flight cap are *shed* (counted,
    # not queued): an open loop must never convert overload into
    # backpressure, that's the closed loop's behaviour.
    arrival: Optional[ArrivalSchedule] = None
    arrival_offset: int = 0
    arrival_stride: int = 1
    # Closed-loop fleet splitting: this process owns sequence numbers
    # [seq_start, seq_start + requests), so N processes cover disjoint
    # slices of the same deterministic client/path sequence.
    seq_start: int = 0
    # Fraction of clients resolving through a public-resolver front
    # (see repro.serve.resolverfront) instead of the authoritative
    # directly.  Only effective when the generator is handed a
    # resolver endpoint; assignment is stable per sequence number, so
    # fleet slices agree on who is public.
    public_resolver_share: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.trace_sample <= 1.0:
            raise ValueError("trace_sample must be in [0, 1]")
        if not 0.0 <= self.public_resolver_share <= 1.0:
            raise ValueError("public_resolver_share must be in [0, 1]")
        if self.seq_start < 0:
            raise ValueError("seq_start must be non-negative")
        if self.arrival_stride <= 0:
            raise ValueError("arrival_stride must be positive")
        if not 0 <= self.arrival_offset < self.arrival_stride:
            raise ValueError("arrival_offset must be in [0, arrival_stride)")
        if self.requests <= 0:
            raise ValueError("requests must be positive")
        if self.concurrency <= 0:
            raise ValueError("concurrency must be positive")
        if self.object_count <= 0:
            raise ValueError("object_count must be positive")
        if self.range_bytes <= 0:
            raise ValueError("range_bytes must be positive")
        if self.http_retries < 0:
            raise ValueError("http_retries must be non-negative")
        if self.resolution_max_age <= 0:
            raise ValueError("resolution_max_age must be positive")


@dataclass(frozen=True)
class LoadReport:
    """Everything a run learned, percentiles included."""

    requests: int
    ok: int
    errors: int
    elapsed_seconds: float
    dns_queries: int
    dns_timeouts: int
    tcp_fallbacks: int
    body_bytes: int
    dns_p50_ms: float
    dns_p99_ms: float
    http_p50_ms: float
    http_p99_ms: float
    error_samples: tuple[str, ...] = field(default_factory=tuple)
    retries: int = 0
    reresolutions: int = 0
    hedged: int = 0
    # Full p50/p95/p99/p999 panels (ms), from percentile_summary.
    dns_percentiles_ms: dict = field(default_factory=dict)
    http_percentiles_ms: dict = field(default_factory=dict)
    # Open-loop arrivals dropped at the in-flight cap (overload is
    # recorded, never queued).
    shed: int = 0
    # Raw latency histogram payloads — (uppers, bucket_counts, sum,
    # count) — so a fleet of generator processes can merge reports
    # with exact percentiles (see merge_load_reports).
    dns_hist: Optional[tuple] = None
    http_hist: Optional[tuple] = None

    @property
    def dns_qps(self) -> float:
        """Sustained DNS queries per second over the whole run."""
        return self.dns_queries / self.elapsed_seconds if self.elapsed_seconds else 0.0

    @property
    def http_rps(self) -> float:
        """Completed HTTP requests per second."""
        return self.ok / self.elapsed_seconds if self.elapsed_seconds else 0.0

    def healthy(self) -> bool:
        """True when every request completed without error."""
        return self.errors == 0 and self.ok == self.requests

    def render(self) -> str:
        """A terminal-friendly summary block."""
        lines = [
            "loadgen report",
            "--------------",
            f"requests        {self.requests}  (ok {self.ok}, errors {self.errors})",
            f"elapsed         {self.elapsed_seconds:.2f} s",
            f"dns queries     {self.dns_queries}  "
            f"({self.dns_qps:,.0f} qps sustained, "
            f"{self.dns_timeouts} timeouts, {self.tcp_fallbacks} tcp fallbacks)",
            f"dns latency     p50 {self.dns_p50_ms:.2f} ms   p99 {self.dns_p99_ms:.2f} ms (full chain)",
            f"http requests   {self.ok}  ({self.http_rps:,.0f} rps)",
            f"http latency    p50 {self.http_p50_ms:.2f} ms   p99 {self.http_p99_ms:.2f} ms",
            f"body bytes      {self.body_bytes:,}",
        ]
        if self.dns_percentiles_ms and self.http_percentiles_ms:
            lines.append(
                "latency panel   dns p95 {:.2f} ms  p999 {:.2f} ms | "
                "http p95 {:.2f} ms  p999 {:.2f} ms".format(
                    self.dns_percentiles_ms.get("p95", 0.0),
                    self.dns_percentiles_ms.get("p999", 0.0),
                    self.http_percentiles_ms.get("p95", 0.0),
                    self.http_percentiles_ms.get("p999", 0.0),
                )
            )
        if self.shed:
            lines.append(f"shed arrivals   {self.shed}  (open-loop in-flight cap)")
        if self.retries:
            lines.append(f"http retries    {self.retries}")
        if self.reresolutions:
            lines.append(f"re-resolutions  {self.reresolutions}  (15 s TTL expired mid-retry)")
        if self.hedged:
            lines.append(f"hedged lookups  {self.hedged}")
        for sample in self.error_samples:
            lines.append(f"error sample    {sample}")
        return "\n".join(lines)


class LoadGenerator:
    """Drives the workload model through a live serve cluster."""

    def __init__(
        self,
        dns_endpoint: tuple[str, int],
        http_endpoint: tuple[str, int],
        directory: Optional[ClientDirectory] = None,
        config: Optional[LoadConfig] = None,
        metrics=None,
        tracer=None,
        resolver_endpoint: Optional[tuple[str, int]] = None,
    ) -> None:
        self.dns_endpoint = dns_endpoint
        self.http_endpoint = http_endpoint
        # A public-resolver front; the config's share of clients
        # resolve through it instead of the authoritative endpoint.
        self.resolver_endpoint = resolver_endpoint
        self._public_dns: Optional[AsyncDnsClient] = None
        self.directory = (
            directory if directory is not None else ClientDirectory.from_adoption()
        )
        self.config = config if config is not None else LoadConfig()
        # Local histograms so percentiles exist even under the null
        # registry; the same observations feed the registry instruments.
        self._dns_hist = HistogramChild(_LATENCY_BUCKETS)
        self._http_hist = HistogramChild(_LATENCY_BUCKETS)
        registry = metrics if metrics is not None else get_registry()
        self._registry = registry
        # Each logical request roots one trace; spans and wire stamps
        # only happen when this tracer is enabled.
        self._tracer = tracer if tracer is not None else get_tracer()
        self._t0 = 0.0
        self._m_requests = registry.counter(
            "loadgen_requests_total",
            "Closed-loop requests issued, by outcome",
            ("outcome",),
        )
        self._m_ok = self._m_requests.labels("ok")
        self._m_error = self._m_requests.labels("error")
        self._m_dns_seconds = registry.histogram(
            "loadgen_dns_resolution_seconds",
            "Full-chain DNS resolution latency",
            buckets=_LATENCY_BUCKETS,
        )
        self._m_http_seconds = registry.histogram(
            "loadgen_http_request_seconds",
            "Ranged download request latency",
            buckets=_LATENCY_BUCKETS,
        )
        self._m_in_flight = registry.gauge(
            "loadgen_in_flight", "Requests currently in flight"
        )
        self._m_retries = registry.counter(
            "loadgen_http_retries_total",
            "HTTP attempts beyond the first, per request",
        )
        self._m_reresolutions = registry.counter(
            "loadgen_reresolutions_total",
            "Retries that re-resolved because the cached chain's TTL expired",
        )
        self._m_shed = registry.counter(
            "loadgen_shed_total",
            "Open-loop arrivals dropped at the in-flight cap",
        )
        self._errors: list[str] = []
        self._ok_count = 0
        self._body_bytes = 0
        self._retry_count = 0
        self._reresolution_count = 0
        self._shed_count = 0
        self._dispatched = 0
        self._inflight = 0
        self._breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_failures,
            cooldown=self.config.breaker_cooldown,
        )

    async def run(self) -> LoadReport:
        """Execute the configured run; always returns a report."""
        config = self.config
        dns = await AsyncDnsClient.open(
            *self.dns_endpoint,
            timeout=config.dns_timeout,
            retries=config.retries,
            source_prefix_len=config.source_prefix_len,
            metrics=self._registry,
            backoff=config.backoff,
            hedge=config.hedge,
            tracer=self._tracer,
        )
        if (
            self.resolver_endpoint is not None
            and config.public_resolver_share > 0.0
        ):
            # The front answers non-authoritatively from its POP
            # caches; hedging stays client-side, exactly as with a
            # real public resolver.
            self._public_dns = await AsyncDnsClient.open(
                *self.resolver_endpoint,
                timeout=config.dns_timeout,
                retries=config.retries,
                source_prefix_len=config.source_prefix_len,
                metrics=self._registry,
                backoff=config.backoff,
                hedge=config.hedge,
                tracer=self._tracer,
            )
        http = PooledHttpClient(
            *self.http_endpoint,
            pool_size=config.concurrency,
            timeout=config.http_timeout,
            tracer=self._tracer,
        )
        in_flight = asyncio.Semaphore(config.max_in_flight or config.concurrency)
        sequence = itertools.count(config.seq_start)
        started = time.perf_counter()
        self._t0 = started
        workers: list[asyncio.Task] = []
        try:
            if config.arrival is not None:
                await self._run_open_loop(dns, http)
            else:
                workers = [
                    asyncio.create_task(
                        self._worker(dns, http, sequence, in_flight)
                    )
                    for _ in range(config.concurrency)
                ]
                await asyncio.gather(*workers)
        except asyncio.CancelledError:
            # Mid-ramp teardown (fleet SIGTERM): cancel the closed-loop
            # workers and *wait* for them — each worker's finally block
            # must run before the clients close underneath it.
            for task in workers:
                task.cancel()
            if workers:
                await asyncio.gather(*workers, return_exceptions=True)
            raise
        finally:
            elapsed = time.perf_counter() - started
            dns.close()
            if self._public_dns is not None:
                self._public_dns.close()
            await http.close()
        requests = (
            self._dispatched if config.arrival is not None else config.requests
        )
        public = self._public_dns
        dns_queries = dns.queries_sent + (public.queries_sent if public else 0)
        dns_timeouts = dns.timeouts + (public.timeouts if public else 0)
        tcp_fallbacks = dns.tcp_fallbacks + (public.tcp_fallbacks if public else 0)
        hedged = dns.hedged_queries + (public.hedged_queries if public else 0)
        dns_panel = {
            k: v * 1000.0 for k, v in self._dns_hist.percentile_summary().items()
        }
        http_panel = {
            k: v * 1000.0 for k, v in self._http_hist.percentile_summary().items()
        }
        return LoadReport(
            requests=requests,
            ok=self._ok_count,
            errors=len(self._errors),
            elapsed_seconds=elapsed,
            dns_queries=dns_queries,
            dns_timeouts=dns_timeouts,
            tcp_fallbacks=tcp_fallbacks,
            body_bytes=self._body_bytes,
            dns_p50_ms=dns_panel["p50"],
            dns_p99_ms=dns_panel["p99"],
            http_p50_ms=http_panel["p50"],
            http_p99_ms=http_panel["p99"],
            error_samples=tuple(self._errors[:5]),
            retries=self._retry_count,
            reresolutions=self._reresolution_count,
            hedged=hedged,
            dns_percentiles_ms=dns_panel,
            http_percentiles_ms=http_panel,
            shed=self._shed_count,
            dns_hist=(
                tuple(self._dns_hist.uppers),
                list(self._dns_hist.bucket_counts),
                self._dns_hist.sum,
                self._dns_hist.count,
            ),
            http_hist=(
                tuple(self._http_hist.uppers),
                list(self._http_hist.bucket_counts),
                self._http_hist.sum,
                self._http_hist.count,
            ),
        )

    async def _worker(self, dns: AsyncDnsClient, http: PooledHttpClient,
                      sequence, in_flight: asyncio.Semaphore) -> None:
        while True:
            seq = next(sequence)
            if seq >= self.config.seq_start + self.config.requests:
                return
            async with in_flight:
                self._m_in_flight.inc()
                try:
                    await self._one_request(dns, http, seq)
                    self._ok_count += 1
                    self._m_ok.inc()
                except Exception as exc:  # the loop must survive anything
                    self._m_error.inc()
                    if len(self._errors) < 100:
                        self._errors.append(f"seq={seq}: {exc}")
                finally:
                    self._m_in_flight.dec()

    async def _run_open_loop(self, dns: AsyncDnsClient,
                             http: PooledHttpClient) -> None:
        """Fire requests at the arrival schedule's times.

        The dispatcher sleeps until each arrival is due, then launches
        it as an independent task — completions never gate arrivals.
        The only coupling to server health is the in-flight cap:
        arrivals that would exceed it are shed and counted, exactly
        what a saturated open-loop generator should report.
        """
        config = self.config
        assert config.arrival is not None
        limit = config.max_in_flight or config.concurrency * 4
        tasks: set[asyncio.Task] = set()
        try:
            for seq, due, region in config.arrival.events(
                config.arrival_offset, config.arrival_stride
            ):
                delay = due - (time.perf_counter() - self._t0)
                if delay > 0.0:
                    await asyncio.sleep(delay)
                if self._inflight >= limit:
                    self._shed_count += 1
                    self._m_shed.inc()
                    continue
                self._inflight += 1
                self._dispatched += 1
                task = asyncio.create_task(
                    self._one_arrival(dns, http, seq, region)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            if tasks:
                await asyncio.gather(*tasks)
        except asyncio.CancelledError:
            for task in list(tasks):
                task.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            raise

    async def _one_arrival(self, dns: AsyncDnsClient, http: PooledHttpClient,
                           seq: int, region) -> None:
        self._m_in_flight.inc()
        try:
            await self._one_request(dns, http, seq, region=region)
            self._ok_count += 1
            self._m_ok.inc()
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # open-loop arrivals must not cascade
            self._m_error.inc()
            if len(self._errors) < 100:
                self._errors.append(f"seq={seq}: {exc}")
        finally:
            self._inflight -= 1
            self._m_in_flight.dec()

    def _now(self) -> float:
        """Run-relative seconds, the ts stamped on client spans."""
        return time.perf_counter() - self._t0

    async def _resolve_timed(self, dns: AsyncDnsClient, client,
                             entry_point: str) -> WireResolution:
        t_dns = time.perf_counter()
        with self._tracer.span(
            "client.resolve", ts=self._now(), qname=entry_point
        ) as span:
            resolution = await dns.resolve(entry_point, client)
            span.annotate(
                chain=len(resolution.chain_names),
                addresses=len(resolution.addresses),
            )
        dns_elapsed = time.perf_counter() - t_dns
        self._dns_hist.observe(dns_elapsed)
        self._m_dns_seconds.observe(dns_elapsed)
        if not resolution.addresses:
            raise DnsClientError(
                f"chain for {entry_point!r} ended without A records "
                f"at {resolution.final_name!r}"
            )
        return resolution

    def _pick_vip(self, resolution: WireResolution, seq: int,
                  attempt: int) -> IPv4Address:
        """A vip from the answer set, skipping open circuits.

        Rotation starts at ``seq + attempt`` so a retry naturally lands
        on a different vip; if every circuit is open the rotated first
        choice is used anyway (the breaker must not wedge the run).
        """
        addresses = resolution.addresses
        start = (seq + attempt) % len(addresses)
        rotated = addresses[start:] + addresses[:start]
        for vip in rotated:
            if self._breaker.allow(str(vip)):
                return vip
        return rotated[0]

    async def _one_request(self, dns: AsyncDnsClient, http: PooledHttpClient,
                           seq: int, region=None) -> None:
        if not self._tracer.enabled:
            return await self._attempts(dns, http, seq, region)
        # Root one trace per logical request.  The id is deterministic
        # in ``seq`` and the sampling decision deterministic in the id,
        # so a re-run traces the same requests.
        trace_id = new_trace_id(f"loadgen|{seq}")
        context = TraceContext(
            trace_id=trace_id,
            sampled=sample_trace(trace_id, self.config.trace_sample),
        )
        with use_context(context):
            with self._tracer.span(
                "client.request", ts=self._now(), seq=seq
            ) as span:
                await self._attempts(dns, http, seq, region)
                span.annotate(outcome="ok")

    def _dns_for(self, dns: AsyncDnsClient, seq: int) -> AsyncDnsClient:
        """The resolver this client uses: ISP path or the public front.

        Assignment is stable in the sequence number (the same keying
        the engine's resolver plane uses for its mixed population), so
        re-runs and fleet slices agree on who resolves where.
        """
        if self._public_dns is None:
            return dns
        share = self.config.public_resolver_share
        if share >= 1.0 or stable_fraction("resolver-population", seq) < share:
            return self._public_dns
        return dns

    async def _attempts(self, dns: AsyncDnsClient, http: PooledHttpClient,
                        seq: int, region=None) -> None:
        config = self.config
        dns = self._dns_for(dns, seq)
        # Open-loop arrivals come with the region the workload model
        # woke up; closed-loop draws the full weighted mix.
        client = (
            self.directory.sample_in_region(region, seq)
            if region is not None else self.directory.sample(seq)
        )
        path = f"/content/ios11-part{seq % config.object_count:03d}.ipsw"
        resolution: Optional[WireResolution] = None
        resolved_at = 0.0
        last_exc: Optional[Exception] = None
        for attempt in range(config.http_retries + 1):
            if attempt > 0:
                self._retry_count += 1
                self._m_retries.inc()
                await asyncio.sleep(
                    config.backoff.delay(attempt - 1, "http", seq)
                )
            # The cached CNAME chain is only valid for one selection-step
            # TTL; a retry past that must re-resolve, not replay a stale
            # vip set (the re-steer would otherwise be invisible).
            now = time.perf_counter()
            if resolution is not None and now - resolved_at > config.resolution_max_age:
                resolution = None
                self._reresolution_count += 1
                self._m_reresolutions.inc()
            if resolution is None:
                try:
                    resolution = await self._resolve_timed(
                        dns, client.address, config.entry_point
                    )
                except DnsClientError as exc:
                    last_exc = exc
                    continue
                resolved_at = time.perf_counter()
            vip = self._pick_vip(resolution, seq, attempt)
            t_http = time.perf_counter()
            try:
                with self._tracer.span(
                    "client.fetch", ts=self._now(), vip=str(vip)
                ) as fetch_span:
                    status, _headers, body_length = await http.get(
                        path,
                        host=config.entry_point,
                        vip=vip,
                        client=client.address,
                        range_bytes=(0, config.range_bytes - 1),
                    )
                    fetch_span.annotate(status=status)
            except (ConnectionError, asyncio.TimeoutError, OSError) as exc:
                self._breaker.record_failure(str(vip))
                last_exc = RuntimeError(f"transport to vip {vip}: {exc}")
                continue
            http_elapsed = time.perf_counter() - t_http
            self._http_hist.observe(http_elapsed)
            self._m_http_seconds.observe(http_elapsed)
            if status in (200, 206):
                self._breaker.record_success(str(vip))
                self._body_bytes += body_length
                return
            self._breaker.record_failure(str(vip))
            last_exc = RuntimeError(f"HTTP {status} from vip {vip} for {path}")
            if status >= 500:
                # A failing vip (injected fault or real outage) may be
                # re-steered away from by the next selection: drop the
                # cached chain so the retry resolves fresh.
                resolution = None
        raise last_exc if last_exc is not None else RuntimeError(
            f"request seq={seq} failed with no recorded cause"
        )


def _hist_from_payload(payload: Optional[tuple]) -> HistogramChild:
    """Rebuild a latency histogram from a report's raw payload."""
    if payload is None:
        return HistogramChild(_LATENCY_BUCKETS)
    uppers, buckets, total, count = payload
    child = HistogramChild(tuple(uppers))
    child.bucket_counts = list(buckets)
    child.sum = total
    child.count = count
    return child


def merge_load_reports(reports: list) -> LoadReport:
    """One report for a fleet of generator processes.

    Counts add; elapsed is the *maximum* (the processes ran
    concurrently, so rates divide by the longest run, which slightly
    understates qps rather than inflating it); percentiles come from
    merging the raw histograms, so the fleet's p999 is exact to bucket
    resolution — not an average of per-process percentiles, which
    would be meaningless.
    """
    inputs = [r for r in reports if r is not None]
    if not inputs:
        raise ValueError("merge_load_reports needs at least one report")
    if len(inputs) == 1:
        return inputs[0]
    dns_merged = HistogramChild.merge(
        [_hist_from_payload(r.dns_hist) for r in inputs]
    )
    http_merged = HistogramChild.merge(
        [_hist_from_payload(r.http_hist) for r in inputs]
    )
    dns_panel = {
        k: v * 1000.0 for k, v in dns_merged.percentile_summary().items()
    }
    http_panel = {
        k: v * 1000.0 for k, v in http_merged.percentile_summary().items()
    }
    samples: list[str] = []
    for report in inputs:
        samples.extend(report.error_samples)
    return LoadReport(
        requests=sum(r.requests for r in inputs),
        ok=sum(r.ok for r in inputs),
        errors=sum(r.errors for r in inputs),
        elapsed_seconds=max(r.elapsed_seconds for r in inputs),
        dns_queries=sum(r.dns_queries for r in inputs),
        dns_timeouts=sum(r.dns_timeouts for r in inputs),
        tcp_fallbacks=sum(r.tcp_fallbacks for r in inputs),
        body_bytes=sum(r.body_bytes for r in inputs),
        dns_p50_ms=dns_panel["p50"],
        dns_p99_ms=dns_panel["p99"],
        http_p50_ms=http_panel["p50"],
        http_p99_ms=http_panel["p99"],
        error_samples=tuple(samples[:5]),
        retries=sum(r.retries for r in inputs),
        reresolutions=sum(r.reresolutions for r in inputs),
        hedged=sum(r.hedged for r in inputs),
        dns_percentiles_ms=dns_panel,
        http_percentiles_ms=http_panel,
        shed=sum(r.shed for r in inputs),
        dns_hist=(
            tuple(dns_merged.uppers),
            list(dns_merged.bucket_counts),
            dns_merged.sum,
            dns_merged.count,
        ),
        http_hist=(
            tuple(http_merged.uppers),
            list(http_merged.bucket_counts),
            http_merged.sum,
            http_merged.count,
        ),
    )
