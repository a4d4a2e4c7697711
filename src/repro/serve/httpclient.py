"""The pooled HTTP client: keep-alive ranged GETs against the live edge.

:class:`PooledHttpClient` is the download half of a modelled device: a
bounded pool of keep-alive HTTP/1.1 connections, one request at a time
per connection, the resolved vip and the acting client carried in the
``X-Vip`` / ``X-Client`` headers the loopback edge routes by.

Each connection is an ``asyncio.Protocol``: ``data_received`` parses
the response head (:class:`~repro.http.wire.HeadReader`), then *counts*
the body bytes as they arrive — the synthetic bodies are never copied
or kept — and resolves the one future its exchange awaits.
"""

from __future__ import annotations

import asyncio
from typing import Optional

from ..http.messages import Headers
from ..http.wire import HeadReader, HeadTooLarge, encode_head
from ..net.ipv4 import IPv4Address
from ..obs import current_context, get_tracer
from .deadline import Alarm
from .udp import connect, pin_reads

__all__ = ["PooledHttpClient"]

# A response head is bounded like a request head, with room for the
# longest ``Via`` chain an estate can produce.
_MAX_HEAD_BYTES = 65536
_NO_HEAD = "no response head (closed, truncated or oversized)"


class _Connection(asyncio.Protocol):
    """One keep-alive connection: one exchange at a time, one response
    timer it re-arms per request."""

    def __init__(self, timeout: float) -> None:
        self._timeout = timeout
        self._alarm = Alarm(self._expired)
        self._heads = HeadReader()
        self.transport: Optional[asyncio.Transport] = None
        self.lost = asyncio.get_running_loop().create_future()
        # The exchange in progress: its future, the head once read, and
        # the body bytes still to come.
        self._waiter: Optional[asyncio.Future] = None
        self._head: Optional[tuple[int, Headers, int]] = None
        self._remaining = 0

    def exchange(self, request: bytes) -> asyncio.Future:
        """Send ``request``; the future is ``(status, headers, body
        length)`` once the whole response has arrived."""
        if self.lost.done():
            raise ConnectionError(_NO_HEAD)
        waiter = self._waiter = asyncio.get_running_loop().create_future()
        self._head = None
        self.transport.write(request)
        self._alarm.arm(self._timeout)
        if self._heads:  # bytes that came unasked
            self._read_head()
        return waiter

    def close(self) -> None:
        self._alarm.close()
        if self.transport is not None:
            self.transport.close()

    # -- asyncio.Protocol ---------------------------------------------

    def connection_made(self, transport: asyncio.Transport) -> None:
        pin_reads(transport)
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        remaining = self._remaining
        if remaining:
            size = len(data)
            if size < remaining:
                self._remaining = remaining - size
                return
            self._remaining = 0
            if size > remaining:  # past the body: the next head's bytes
                self._heads.feed(data[remaining:])
            self._done()
            return
        self._heads.feed(data)
        if self._waiter is not None and self._head is None:
            self._read_head()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._alarm.close()
        if self._waiter is not None:
            self._fail(ConnectionError(
                "body ended early" if self._head is not None else _NO_HEAD
            ))
        if not self.lost.done():
            self.lost.set_result(None)

    # -- the exchange -------------------------------------------------

    def _read_head(self) -> None:
        try:
            head = self._heads.read_head(_MAX_HEAD_BYTES)
        except HeadTooLarge:
            self._fail(ConnectionError(_NO_HEAD))
            return
        if head is None:
            return
        status_line, headers = head[0].strip(), head[1]
        parts = status_line.split(" ", 2)
        if len(parts) < 2 or not parts[1].isdigit():
            self._fail(ConnectionError(f"malformed status line: {status_line!r}"))
            return
        declared = headers.get("Content-Length") or "0"
        if not (declared.isascii() and declared.isdigit()):
            self._fail(ConnectionError(f"malformed Content-Length: {declared!r}"))
            return
        length = int(declared)
        self._head = (int(parts[1]), headers, length)
        # What arrived with the head is counted, then what follows it.
        self._remaining = length - self._heads.skip(length)
        if not self._remaining:
            self._done()

    def _done(self) -> None:
        self._alarm.disarm()
        waiter, self._waiter = self._waiter, None
        if not waiter.done():  # its caller may have been cancelled
            waiter.set_result(self._head)

    def _fail(self, exc: BaseException) -> None:
        self._alarm.disarm()
        waiter, self._waiter = self._waiter, None
        self._remaining = 0
        if not waiter.done():
            waiter.set_exception(exc)
        # Its framing cannot be trusted any more.
        self.close()

    def _expired(self) -> None:
        if self._waiter is not None:
            self._fail(asyncio.TimeoutError())


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
        # Idle connections, the most recently used last (LIFO keeps the
        # warm ones busy and lets the rest idle out).
        self._pool: list[_Connection] = []
        self._pool_size = pool_size
        # Every connection ever opened, pooled *or checked out*:
        # close() must find those a cancelled task abandoned
        # mid-request, or their sockets leak past the run.
        self._open: set[_Connection] = set()

    async def _connect(self) -> _Connection:
        _transport, connection = await asyncio.wait_for(
            connect(lambda: _Connection(self._timeout), self._host, self._port),
            timeout=self._timeout,
        )
        self._open.add(connection)
        return connection

    def _release(self, connection: _Connection) -> None:
        if len(self._pool) < self._pool_size:
            self._pool.append(connection)
        else:
            self._discard(connection)

    def _discard(self, connection: _Connection) -> None:
        self._open.discard(connection)
        connection.close()

    async def get(
        self,
        path: str,
        host: str,
        vip: IPv4Address,
        client: IPv4Address,
        range_bytes: Optional[tuple[int, int]] = None,
    ) -> tuple[int, Headers, int]:
        """One GET; returns (status, headers, body length received)."""
        connection = self._pool.pop() if self._pool else await self._connect()
        request = [
            ("Host", host),
            ("X-Vip", vip),
            ("X-Client", client),
            ("Connection", "keep-alive"),
        ]
        context = current_context()
        if context is not None:
            # Propagate the trace with the fetch span as remote parent.
            carrier = context.child(self._tracer.current_span_id())
            request.append(("Traceparent", carrier.to_traceparent()))
        if range_bytes is not None:
            request.append(("Range", f"bytes={range_bytes[0]}-{range_bytes[1]}"))
        try:
            status, headers, body_length = await connection.exchange(
                encode_head(f"GET {path} HTTP/1.1", request)
            )
        except Exception:
            self._discard(connection)
            raise
        if (headers.get("Connection") or "").lower() == "close":
            self._discard(connection)
        else:
            self._release(connection)
        return status, headers, body_length

    async def close(self) -> None:
        """Close every connection — pooled or abandoned — and wait.

        Closing without waiting for ``connection_lost`` leaves
        transports to be reaped by GC after the loop is gone, which
        surfaces as ``ResourceWarning: unclosed transport`` at scale.
        The wait is what makes a fleet teardown FD-clean.
        """
        self._pool.clear()
        connections, self._open = list(self._open), set()
        for connection in connections:
            connection.close()
        if connections:
            await asyncio.gather(*(c.lost for c in connections))
