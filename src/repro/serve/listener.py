"""The listener lifecycle every server of the serving layer shares.

Binding (optionally ``SO_REUSEPORT``), the ``endpoint`` once bound, the
started-twice guard, tracking of accepted connections, and the drain on
the way down are the same for the DNS server, the HTTP edge, the admin
plane and the resolver front; :class:`Listener` is that lifecycle, and
the servers keep only what they say over the sockets.
"""

from __future__ import annotations

import asyncio
import time
from typing import Awaitable, Callable, Optional

from .deadline import deadline
from .udp import MAX_READ, open_udp, pin_stream_reads

__all__ = ["Listener", "RunClock", "hang_up"]

# How long a connection the server ends first waits for its peer to
# finish sending and close (nginx calls this a lingering close).
_LINGER = 1.0


class RunClock:
    """Seconds since :meth:`start` (0.0 before it): the serving layer's clock.

    Fault windows, selection buckets, cache expiry and span stamps are
    all run-relative, so an edge keeps exactly one of these: a
    :class:`~repro.serve.cluster.ServeCluster` starts its own in
    ``start()`` and hands it to every server, the anycast router and the
    fault plane.  A server built on its own starts one at construction.
    """

    def __init__(self) -> None:
        self._origin: Optional[float] = None

    def start(self) -> "RunClock":
        self._origin = time.monotonic()
        return self

    def __call__(self) -> float:
        if self._origin is None:
            return 0.0
        return time.monotonic() - self._origin


async def hang_up(writer: asyncio.StreamWriter) -> None:
    """Close ``writer`` and wait it out, tolerating a teardown race."""
    writer.close()
    try:
        await writer.wait_closed()
    except OSError:  # pragma: no cover - the peer reset first
        pass


async def _read_out(reader: asyncio.StreamReader,
                    writer: asyncio.StreamWriter) -> None:
    """Half-close, then drop what the peer sends until it closes too."""
    try:
        writer.write_eof()
    except OSError:  # pragma: no cover - the peer reset first
        return
    with deadline(_LINGER):
        while await reader.read(MAX_READ):
            pass


class _Datagrams(asyncio.DatagramProtocol):
    def __init__(self, receive: Callable) -> None:
        self.datagram_received = receive


class Listener:
    """The sockets one server listens on, and the connections they accepted.

    ``datagram`` is called with ``(data, addr)`` for every UDP datagram
    (replies go out through :meth:`sendto`), ``stream`` is the
    ``async (reader, writer)`` handler run once per TCP connection; a
    server with both gets them on one port number.  A handler that
    returns, or raises ``ConnectionError`` / ``asyncio.TimeoutError``,
    ends its connection quietly.  While it is mid-exchange it keeps its
    writer in :attr:`busy`, which is what :meth:`stop` spares.  One that
    returns with its peer still connected has said its last: the peer
    is read out before the close, so that it gets the answer and not a
    reset for whatever it had still been sending.
    """

    def __init__(
        self,
        what: str,
        datagram: Optional[Callable[[bytes, tuple], None]] = None,
        stream: Optional[Callable[..., Awaitable[None]]] = None,
    ) -> None:
        self._what = what
        self._datagram = datagram
        self._stream = stream
        self._transport: Optional[asyncio.DatagramTransport] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._endpoint: Optional[tuple[str, int]] = None
        self._tasks: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()
        self.busy: set[asyncio.StreamWriter] = set()
        # True while stop() drains: a response written now must say
        # ``Connection: close``.
        self.closing = False

    @property
    def endpoint(self) -> tuple[str, int]:
        """(host, port) once started."""
        if self._endpoint is None:
            raise RuntimeError(f"{self._what} is not started")
        return self._endpoint

    async def start(self, host: str = "127.0.0.1", port: int = 0,
                    reuse_port: bool = False) -> tuple[str, int]:
        """Bind and listen; returns the bound endpoint.

        With ``reuse_port`` every socket is bound ``SO_REUSEPORT``, so N
        server processes can share one port: the kernel hashes UDP
        datagrams by 4-tuple and spreads TCP accepts across the group,
        each accepted connection staying pinned to its process.  Every
        member must bind with the flag.
        """
        if self._endpoint is not None:
            raise RuntimeError(f"{self._what} already started")
        extra = {"reuse_port": True} if reuse_port else {}
        # UDP and TCP are separate port spaces; retry a few times in
        # case an ephemeral UDP port is taken on the TCP side.
        last_error: Optional[OSError] = None
        for _ in range(5):
            bound = (host, port)
            if self._datagram is not None:
                self._transport, _protocol = await open_udp(
                    lambda: _Datagrams(self._datagram), local_addr=bound, **extra
                )
                bound = self._transport.get_extra_info("sockname")[:2]
            if self._stream is not None:
                try:
                    self._server = await asyncio.start_server(
                        self._serve, host=bound[0], port=bound[1], **extra
                    )
                except OSError as exc:
                    if self._transport is None:
                        raise
                    self._transport.close()
                    self._transport = None
                    if port != 0:
                        raise
                    last_error = exc
                    continue
                bound = self._server.sockets[0].getsockname()[:2]
            self._endpoint = (bound[0], bound[1])
            return self._endpoint
        raise RuntimeError(f"could not bind matching UDP/TCP ports: {last_error}")

    def sendto(self, data: bytes, addr) -> None:
        """Send one datagram from the UDP side (dropped once stopped)."""
        if self._transport is not None:
            self._transport.sendto(data, addr)

    async def stop(self, grace: float = 2.0) -> None:
        """Stop listening and drain the accepted connections.

        Idle connections are closed at once (a keep-alive client reads
        a clean EOF between exchanges); busy ones get to finish theirs;
        stragglers are cancelled after ``grace`` seconds.
        """
        if self._transport is not None:
            self._transport.close()
            self._transport = None
        if self._server is not None:
            self._server.close()
        self.closing = True
        try:
            for writer in self._writers - self.busy:
                writer.close()
            if self._tasks:
                _done, pending = await asyncio.wait(
                    list(self._tasks), timeout=grace
                )
                for task in pending:
                    task.cancel()
                if pending:
                    await asyncio.gather(*pending, return_exceptions=True)
        finally:
            self.closing = False
        if self._server is not None:
            # After the drain: from Python 3.12 this waits for every
            # accepted connection, not just the listening socket.
            await self._server.wait_closed()
            self._server = None
        self._endpoint = None

    async def _serve(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        pin_stream_reads(writer)
        task = asyncio.current_task()
        self._tasks.add(task)
        self._writers.add(writer)
        try:
            await self._stream(reader, writer)
            if not reader.at_eof():
                self.busy.discard(writer)
                await _read_out(reader, writer)
        except (ConnectionError, asyncio.TimeoutError):
            pass
        finally:
            self._writers.discard(writer)
            self.busy.discard(writer)
            self._tasks.discard(task)
            await hang_up(writer)
