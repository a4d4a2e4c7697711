"""Live HTTP edge: the vip → edge-bx → edge-lx hierarchy behind a socket.

:class:`AsyncHttpEdge` is an asyncio HTTP/1.1 server fronting the
modelled cache estates.  A client resolves a vip address through the
live DNS layer and then downloads from it; on loopback all vips share
one listener, so the resolved address travels in the ``X-Vip`` request
header (the stand-in for connecting to that address directly).  Requests
are routed through :meth:`repro.apple.deployment.AppleCdn.serve` for
Apple vips — producing the exact ``Via``/``X-Cache`` chains the §3.3
header inference parses — and through the flat third-party delivery
model for Akamai/Limelight addresses.

Bodies stay synthetic (the model never materialises a 2.8 GB image) but
are real on the wire: a ``Range`` request gets its slice as zero bytes
with a correct ``Content-Range``, which is how the load generator
replays ranged iOS-image downloads without moving gigabytes.

Each accepted connection is one :class:`~repro.serve.listener.Connection`:
``data_received`` feeds the connection's
:class:`~repro.http.wire.HeadReader`, and every complete head is
answered in the same callback — routed through :meth:`_serve` and
written with ``transport.write`` — so a request costs no task, no
stream buffer and no ``drain()``.  The connection's base class keeps
the head / idle timeout, the order of pipelined requests behind a
delayed answer, the backpressure and the lingering close.
"""

from __future__ import annotations

import asyncio
import re
import time
from typing import Callable, Optional

from ..apple.mapping import MetaCdnEstate
from ..http.headers import CacheStatus
from ..http.messages import Headers, HttpRequest, HttpResponse
from ..http.wire import HeadReader, HeadTooLarge, encode_head, status_line
from ..net.ipv4 import IPv4Address
from ..obs import TraceContext, get_registry, get_tracer, use_context
from .listener import Connection, Listener, RunClock

__all__ = ["AsyncHttpEdge", "estate_router"]

_REQUEST_LINE = re.compile(r"^([A-Z]+) (\S+) HTTP/(1\.[01])$")
_RANGE = re.compile(r"^bytes=(\d+)-(\d*)$")
_MAX_HEADER_BYTES = 16384
_READ_TIMEOUT = 30.0
# Every synthetic body is a run of zeros: responses up to this size are
# views of one buffer instead of a fresh allocation per request.
_ZEROS = memoryview(bytes(262_144))

# Router: (vip, model request, object size) -> model response, or None
# when no fleet owns the vip.
Router = Callable[[IPv4Address, HttpRequest, int], Optional[HttpResponse]]


def estate_router(estate: MetaCdnEstate) -> Router:
    """Route vips across every delivery fleet of a Meta-CDN estate."""
    return estate.serve_at


def _zeros(count: int):
    """``count`` zero bytes, shared when they fit the module buffer."""
    return _ZEROS[:count] if count <= len(_ZEROS) else bytes(count)


class AsyncHttpEdge:
    """An asyncio HTTP/1.1 cache-edge server over a model router.

    ``object_size`` is the modelled entity size for every object (the
    cache layer sees and accounts this size; the wire only carries the
    requested range).  Keep-alive is honoured so a pooled load
    generator pays connection setup once per worker, not per request.
    """

    def __init__(
        self,
        router: Router,
        object_size: int = 262_144,
        metrics=None,
        faults=None,
        operator_for: Optional[Callable[[IPv4Address], Optional[str]]] = None,
        tracer=None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if object_size <= 0:
            raise ValueError("object_size must be positive")
        self.router = router
        self.object_size = object_size
        # Fault plane (repro.faults.FaultInjector); ``operator_for``
        # maps a vip to its CDN operator so whole-CDN windows apply.
        self._faults = faults
        self._operator_for = operator_for
        # Spans adopt the request's ``Traceparent`` header, parenting
        # edge-side work under the client's fetch span; ``clock``
        # supplies span timestamps (defaults to seconds since built).
        self._tracer = tracer if tracer is not None else get_tracer()
        self._clock = clock if clock is not None else RunClock().start()
        self._listener = Listener(
            "server", connection=lambda listener: _HttpConnection(listener, self)
        )

        registry = metrics if metrics is not None else get_registry()
        self._m_requests = registry.counter(
            "serve_http_requests_total",
            "HTTP requests handled by the live edge, by status",
            ("status",),
        )
        self._m_bytes = registry.counter(
            "serve_http_body_bytes_total",
            "Body bytes written to clients",
        )
        self._m_connections = registry.gauge(
            "serve_http_open_connections",
            "Currently open client connections",
        )
        self._m_handle = registry.histogram(
            "serve_http_handle_seconds",
            "Server-side handling time per HTTP request",
            buckets=(0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
                     0.01, 0.025, 0.05, 0.1, 0.25),
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
        """Start listening; returns the bound endpoint.

        ``reuse_port`` lets a fleet of edge processes share one port
        (see :meth:`Listener.start`): keep-alive requests stay on the
        process that accepted them, so they hit the same cache.
        """
        return await self._listener.start(host, port, reuse_port)

    async def stop(self, grace: float = 2.0) -> None:
        """Stop accepting and drain connections gracefully.

        Idle keep-alive connections are closed immediately (the client
        reads a clean EOF between responses).  Connections mid-request
        get to finish: their response goes out with ``Connection:
        close`` and the connection closes behind it — no resets for
        well-behaved clients.  Stragglers are dropped after ``grace``
        seconds.
        """
        await self._listener.stop(grace)

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------

    def _answer(self, connection: "_HttpConnection",
                head: tuple[str, Headers]) -> None:
        started = time.perf_counter()
        match = _REQUEST_LINE.match(head[0].strip())
        if match is None:
            self._reject(connection, "malformed request line", started)
            return
        method, target, version = match.groups()
        headers = head[1]

        keep_alive = version == "1.1"
        connection_field = (headers.get("Connection") or "").lower()
        if "close" in connection_field:
            keep_alive = False
        elif "keep-alive" in connection_field:
            keep_alive = True
        # A declared body is never read: left on the connection it
        # would be parsed as the next request.
        if (headers.get("Content-Length", "0") != "0"
                or "Transfer-Encoding" in headers):
            keep_alive = False

        context = None
        if self._tracer.enabled:
            context = TraceContext.from_traceparent(headers.get("Traceparent"))
        if context is None:
            self._respond(connection, method, target, headers, keep_alive,
                          started, None)
            return
        # Adopt the client's trace for the duration of the exchange:
        # the span joins its chain, and unsampled traces collapse to
        # a counted no-op.
        with use_context(context):
            with self._tracer.span(
                "serve.http.request", ts=self._clock(), path=target
            ) as span:
                self._respond(connection, method, target, headers, keep_alive,
                              started, span)

    def _respond(self, connection: "_HttpConnection", method: str,
                 target: str, headers: Headers, keep_alive: bool,
                 started: float, span) -> None:
        status, out_headers, body, delay = self._serve(method, target, headers)
        if span is not None:
            span.annotate(status=status, bytes=len(body))
            cache = out_headers.get("X-Cache")
            if cache:
                # Client-most verdict first; "hit"/"miss"/"origin" is
                # the chain's terminal classification.
                span.annotate(cache=cache)
                try:
                    verdict = CacheStatus.parse(cache.split(",")[0])
                except ValueError:
                    pass
                else:
                    span.annotate(cache_hit=verdict.is_hit)
        include_body = method != "HEAD"
        if delay > 0.0:
            # Written when the delay is up; a span ends here, before it.
            connection.hold(delay, self._send, connection, status, out_headers,
                            body, include_body, keep_alive, started)
        else:
            self._send(connection, status, out_headers, body, include_body,
                       keep_alive, started)

    def _serve(self, method: str, target: str,
               headers: Headers) -> tuple[int, Headers, bytes | memoryview, float]:
        if method not in ("GET", "HEAD"):
            return 405, Headers({"Allow": "GET, HEAD"}), b"method not allowed\n", 0.0
        vip_text = headers.get("X-Vip")
        host = (headers.get("Host") or "").split(":")[0].lower()
        if not vip_text:
            return 400, Headers(), b"missing X-Vip routing header\n", 0.0
        if not host:
            return 400, Headers(), b"missing Host header\n", 0.0
        try:
            vip = IPv4Address.parse(vip_text)
        except ValueError:
            return 400, Headers(), b"unparseable X-Vip address\n", 0.0
        path = target.split("?")[0] or "/"

        delay = 0.0
        if self._faults is not None:
            operator = self._operator_for(vip) if self._operator_for else None
            if self._faults.vip_down(vip_text, operator):
                return 503, Headers(), b"vip offline (injected fault)\n", 0.0
            if operator is not None and self._faults.cdn_down(
                operator, key=(vip_text, path)
            ):
                return 503, Headers(), b"delivery network down (injected fault)\n", 0.0
            delay = self._faults.http_delay(vip_text, operator)
        model_request = HttpRequest(
            method="GET",
            host=host,
            path=path,
            headers=Headers({"X-Client": headers.get("X-Client", "")}),
        )
        model_response = self.router(vip, model_request, self.object_size)
        if model_response is None:
            return 404, Headers(), b"no delivery server at that vip\n", 0.0

        entity_size = model_response.body_size
        range_header = headers.get("Range")
        status = model_response.status
        # Every router path hands back headers of its own (the caches
        # store and replay copies): edited in place.
        out = model_response.headers
        if range_header is not None:
            parsed = _RANGE.match(range_header.strip())
            if parsed is None:
                return (416, Headers({"Content-Range": f"bytes */{entity_size}"}),
                        b"", delay)
            first = int(parsed.group(1))
            last = int(parsed.group(2)) if parsed.group(2) else entity_size - 1
            last = min(last, entity_size - 1)
            if first >= entity_size or first > last:
                return (416, Headers({"Content-Range": f"bytes */{entity_size}"}),
                        b"", delay)
            body = _zeros(last - first + 1)
            status = 206
            out.set("Content-Range", f"bytes {first}-{last}/{entity_size}")
        else:
            body = _zeros(entity_size)
        out.set("X-Body-Size", str(entity_size))
        return status, out, body, delay

    def _send(self, connection: "_HttpConnection", status: int,
              headers: Headers, body: bytes | memoryview, include_body: bool,
              keep_alive: bool, started: float) -> None:
        # A teardown begun while this request was in flight must end
        # with an honest Connection: close, never a reset.
        keep = keep_alive and status < 500 and not self._listener.closing
        headers.set("Connection", "keep-alive" if keep else "close")
        self._write(connection.transport, status, headers, body, include_body)
        self._m_requests.labels(str(status)).inc()
        self._m_handle.observe(time.perf_counter() - started)
        if not keep:
            connection.finish()

    def _reject(self, connection: "_HttpConnection", text: str,
                started: float) -> None:
        """A ``400`` for a head that cannot be answered, then the last word."""
        self._write(connection.transport, 400, Headers(), (text + "\n").encode())
        self._m_requests.labels("400").inc()
        self._m_handle.observe(time.perf_counter() - started)
        connection.finish()

    def _write(self, transport: asyncio.Transport, status: int,
               headers: Headers, body: bytes | memoryview,
               include_body: bool = True) -> None:
        transport.write(encode_head(status_line(status), [
            *headers,
            ("Content-Length", len(body)),
            ("Server", "repro-serve/1.0"),
        ]))
        if include_body and body:
            transport.write(body)
            self._m_bytes.inc(len(body))


class _HttpConnection(Connection):
    """One client connection of the edge: heads in, responses out."""

    def __init__(self, listener: Listener, edge: AsyncHttpEdge) -> None:
        super().__init__(listener, _READ_TIMEOUT)
        self._edge = edge
        self._heads = HeadReader()

    def connection_made(self, transport: asyncio.Transport) -> None:
        super().connection_made(transport)
        self._edge._m_connections.inc()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        super().connection_lost(exc)
        self._edge._m_connections.dec()

    def _received(self, data: bytes) -> None:
        self._heads.feed(data)

    def _next(self) -> bool:
        if not self._heads:
            return False
        try:
            head = self._heads.read_head(_MAX_HEADER_BYTES)
        except HeadTooLarge:
            self._edge._reject(self, "request head too large", time.perf_counter())
            return True
        if head is None:
            return False
        self._edge._answer(self, head)
        return True
