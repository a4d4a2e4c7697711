"""The listener lifecycle every server of the serving layer shares.

Binding (optionally ``SO_REUSEPORT``), the ``endpoint`` once bound, the
started-twice guard, tracking of accepted connections, and the drain on
the way down are the same for the DNS server, the HTTP edge and the
resolver front; :class:`Listener` is that lifecycle, and
the servers keep only what they say over the sockets.

Its TCP side is one protocol path: every accepted connection is a
:class:`Connection` whose ``data_received`` cuts the requests off what
arrived and answers them in place — no task, no stream buffer, no
``drain()`` per request.  What a connection does between requests is
the same for every server and lives here: one :class:`Alarm` for the
head / idle timeout, reading paused while a write is backed up, and the
lingering close.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Optional

from .deadline import Alarm
from .udp import open_udp, pin_reads

__all__ = ["Connection", "Listener", "RunClock"]

# How long a connection the server ends first waits for its peer to
# finish sending and close (nginx calls this a lingering close).
_LINGER = 1.0


class RunClock:
    """Seconds since :meth:`start` (0.0 before it): the serving layer's clock.

    Selection buckets, cache expiry and span stamps are all
    run-relative, so an edge keeps exactly one of these: a
    :class:`~repro.serve.cluster.ServeCluster` starts its own in
    ``start()`` and hands it to every server.  A server built on its
    own starts one at construction.
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


def _bind_error(transport: str, bound: tuple, exc: OSError) -> OSError:
    """``exc`` naming what could not be bound: ``cannot bind UDP h:p: …``."""
    return OSError(f"cannot bind {transport} {bound[0]}:{bound[1]}: {exc}")


class _Datagrams(asyncio.DatagramProtocol):
    def __init__(self, receive: Callable) -> None:
        self.datagram_received = receive


class Connection(asyncio.Protocol):
    """One accepted TCP connection: requests in, answers out, in order.

    A server subclasses it with :meth:`_received` (take what arrived)
    and :meth:`_next` (cut one complete request off it and answer it,
    or report that none is complete yet).  The base runs the rest:

    * **Timeout:** one :class:`Alarm`, armed for ``timeout`` seconds
      whenever the connection goes back to waiting for a request — a
      peer trickling a request, or idling on keep-alive, is closed at it.
    * **Backpressure:** while the transport's write buffer is past its
      high-water mark reading is paused, so a peer that pipelines and
      never reads cannot make the server buffer without bound.
    * **Last word:** :meth:`finish` half-closes and reads the peer out
      for up to ``_LINGER`` s before closing, so that it gets the answer
      and not a reset for whatever it had still been sending.
    * **Drain:** a connection with a backed-up write is :attr:`busy`;
      :meth:`Listener.stop` closes the others at once, and one that goes
      idle while the listener is closing closes then.
    """

    def __init__(self, listener: "Listener", timeout: float) -> None:
        self._listener = listener
        self._timeout = timeout
        self._alarm = Alarm(self._expired)
        self.transport: Optional[asyncio.Transport] = None
        self._paused = False
        self._lingering = False

    @property
    def busy(self) -> bool:
        """Mid-exchange: an answer not yet handed to the kernel."""
        return self._paused

    # -- what a server says -------------------------------------------

    def _received(self, data: bytes) -> None:
        raise NotImplementedError

    def _next(self) -> bool:
        """Answer the next complete request; False when there is none."""
        raise NotImplementedError

    # -- asyncio.Protocol ---------------------------------------------

    def connection_made(self, transport: asyncio.Transport) -> None:
        pin_reads(transport)
        self.transport = transport
        self._listener._connections.add(self)
        self._alarm.arm(self._timeout)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._alarm.close()
        self._listener._lost(self)

    def data_received(self, data: bytes) -> None:
        if self._lingering:
            return  # read out: the answer is already said
        self._received(data)
        self._serve(False)

    def eof_received(self) -> bool:
        # Reading is paused while an answer is backed up, so the peer's
        # EOF only arrives here between requests: a request cut short is
        # dropped, the connection closes after its writes.
        return False

    def pause_writing(self) -> None:
        self._paused = True
        self._alarm.disarm()
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self._paused = False
        if self._lingering:
            self._linger()
        else:
            self.transport.resume_reading()
            self._serve(True)

    # -- the request loop ---------------------------------------------

    def _serve(self, answered: bool) -> None:
        """Answer every complete request buffered, then wait for more."""
        while True:
            if self._paused or self._lingering:
                return  # backed up or finished: that path resumes
            if not self._next():
                break
            answered = True
        if answered:  # back to waiting for a request
            if self._listener.closing:
                self.transport.close()
            else:
                self._alarm.arm(self._timeout)

    def finish(self) -> None:
        """This side has said its last: half-close, read the peer out,
        close (at once when the write side cannot be shut)."""
        self._lingering = True
        try:
            self.transport.write_eof()
        except OSError:  # pragma: no cover - the peer reset first
            self.transport.close()
            return
        if not self._paused:
            self._linger()

    def _linger(self) -> None:
        self._alarm.arm(_LINGER)
        self.transport.resume_reading()

    def _expired(self) -> None:
        self.transport.close()


class Listener:
    """The sockets one server listens on, and the connections they accepted.

    ``datagram`` is called with ``(data, addr)`` for every UDP datagram
    (replies go out through :meth:`sendto`); ``connection(listener)``
    builds the :class:`Connection` of each accepted TCP connection.  A
    server with both gets them on one port number.
    """

    def __init__(
        self,
        what: str,
        datagram: Optional[Callable[[bytes, tuple], None]] = None,
        connection: Optional[Callable[["Listener"], Connection]] = None,
    ) -> None:
        self._what = what
        self._datagram = datagram
        self._connection = connection
        self._transport: Optional[asyncio.DatagramTransport] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._endpoint: Optional[tuple[str, int]] = None
        self._connections: set[Connection] = set()
        # Set while stop() waits for the last connection to go.
        self._drained: Optional[asyncio.Future] = None
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
                try:
                    self._transport, _protocol = await open_udp(
                        lambda: _Datagrams(self._datagram), local_addr=bound,
                        **extra
                    )
                except OSError as exc:
                    raise _bind_error("UDP", bound, exc) from exc
                bound = self._transport.get_extra_info("sockname")[:2]
            if self._connection is not None:
                try:
                    self._server = await asyncio.get_running_loop().create_server(
                        lambda: self._connection(self), bound[0], bound[1], **extra
                    )
                except OSError as exc:
                    if self._transport is not None:
                        self._transport.close()
                        self._transport = None
                        if port == 0:
                            last_error = exc
                            continue
                    raise _bind_error("TCP", bound, exc) from exc
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
        stragglers are dropped after ``grace`` seconds.
        """
        if self._transport is not None:
            self._transport.close()
            self._transport = None
        if self._server is not None:
            self._server.close()
        self.closing = True
        try:
            for connection in list(self._connections):
                if not connection.busy:
                    connection.transport.close()
            if self._connections:
                self._drained = asyncio.get_running_loop().create_future()
                _done, pending = await asyncio.wait([self._drained], timeout=grace)
                if pending:
                    for connection in list(self._connections):
                        connection.transport.abort()
        finally:
            self.closing = False
            self._drained = None
        if self._server is not None:
            # After the drain: from Python 3.12 this waits for every
            # accepted connection, not just the listening socket.
            await self._server.wait_closed()
            self._server = None
        self._endpoint = None

    def _lost(self, connection: Connection) -> None:
        self._connections.discard(connection)
        drained = self._drained
        if drained is not None and not self._connections and not drained.done():
            drained.set_result(None)
