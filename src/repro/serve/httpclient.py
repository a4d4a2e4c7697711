"""The pooled HTTP client: keep-alive ranged GETs against the live edge.

:class:`PooledHttpClient` is the download half of a modelled device: a
bounded pool of keep-alive HTTP/1.1 connections, one request at a time
per connection, the resolved vip and the acting client carried in the
``X-Vip`` / ``X-Client`` headers the loopback edge routes by.
"""

from __future__ import annotations

import asyncio
from typing import Optional

from ..http.messages import Headers
from ..http.wire import HeadReader, encode_head
from ..net.ipv4 import IPv4Address
from ..obs import current_context, get_tracer
from .deadline import deadline
from .listener import hang_up
from .udp import MAX_READ, open_tcp

__all__ = ["PooledHttpClient"]

# A response head is bounded like a request head, with room for the
# longest ``Via`` chain an estate can produce.
_MAX_HEAD_BYTES = 65536


class _Connection:
    """One keep-alive connection: its stream, its buffered head reader
    and the one response deadline it re-enters per request."""

    __slots__ = ("reader", "writer", "heads", "guard")

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, timeout: float) -> None:
        self.reader = reader
        self.writer = writer
        self.heads = HeadReader(reader)
        self.guard = deadline.kept(timeout)

    def close(self) -> None:
        self.guard.close()
        self.writer.close()


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
        # Every connection ever opened, pooled *or checked out*:
        # close() must find those a cancelled task abandoned
        # mid-request, or their sockets leak past the run.
        self._open: set[_Connection] = set()

    async def _acquire(self) -> _Connection:
        try:
            return self._pool.get_nowait()
        except asyncio.QueueEmpty:
            pass
        reader, writer = await asyncio.wait_for(
            open_tcp(self._host, self._port), timeout=self._timeout
        )
        connection = _Connection(reader, writer, self._timeout)
        self._open.add(connection)
        return connection

    def _release(self, connection: _Connection) -> None:
        try:
            self._pool.put_nowait(connection)
        except asyncio.QueueFull:
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
        connection = await self._acquire()
        writer = connection.writer
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
            writer.write(encode_head(f"GET {path} HTTP/1.1", request))
            await writer.drain()
            with connection.guard:
                status, headers, body_length = await self._read_response(connection)
        except Exception:
            self._discard(connection)
            raise
        if (headers.get("Connection") or "").lower() == "close":
            self._discard(connection)
        else:
            self._release(connection)
        return status, headers, body_length

    @staticmethod
    async def _read_response(connection: _Connection) -> tuple[int, Headers, int]:
        head = await connection.heads.read_head(_MAX_HEAD_BYTES)
        if head is None:
            raise ConnectionError("no response head (closed, truncated or oversized)")
        status_line, headers = head[0].strip(), head[1]
        parts = status_line.split(" ", 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise ConnectionError(f"malformed status line: {status_line!r}")
        status = int(parts[1])
        declared = headers.get("Content-Length") or "0"
        if not (declared.isascii() and declared.isdigit()):
            raise ConnectionError(f"malformed Content-Length: {declared!r}")
        length = int(declared)
        # What arrived with the head, then the stream itself.
        received = len(connection.heads.take(length))
        reader = connection.reader
        while received < length:
            chunk = await reader.read(min(MAX_READ, length - received))
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
        connections, self._open = list(self._open), set()
        for connection in connections:
            connection.guard.close()
        if connections:
            await asyncio.gather(*(hang_up(c.writer) for c in connections))
