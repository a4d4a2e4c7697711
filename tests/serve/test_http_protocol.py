"""The edge's connection protocol: what ``data_received`` answers.

The edge answers each complete head inside ``data_received``; these
tests hold that how the bytes are cut into arrivals changes nothing on
the wire, that a delayed answer holds back the pipelined requests behind
it, and that a peer which pipelines and never reads stalls the
connection instead of growing the server's write buffer.
"""

from __future__ import annotations

import asyncio
import socket

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultInjector, FaultKind, FaultSchedule, FaultWindow
from repro.http.messages import Headers, HttpResponse
from repro.obs import MetricsRegistry
from repro.serve import AsyncHttpEdge, estate_router


def _router(vip, request, size):
    """A fixed model: same headers, whatever came before (the oracle
    compares two runs, so no cache state may differ between them)."""
    return HttpResponse(
        200, Headers({"Via": f"http/1.1 {vip} (test)", "X-Cache": "hit-fresh"}),
        body_size=size,
    )


class _Wire(asyncio.Transport):
    """What the edge wrote, and how it left the connection."""

    def __init__(self) -> None:
        super().__init__()
        self.out = bytearray()
        self.half_closed = False
        self.closed = False
        self.reading = True

    def write(self, data) -> None:
        assert not self.half_closed and not self.closed
        self.out += data

    def write_eof(self) -> None:
        self.half_closed = True

    def can_write_eof(self) -> bool:
        return True

    def close(self) -> None:
        self.closed = True

    def is_closing(self) -> bool:
        return self.closed

    def pause_reading(self) -> None:
        self.reading = False

    def resume_reading(self) -> None:
        self.reading = True


def _answer(chunks: list[bytes]) -> tuple[bytes, bool, bool, dict]:
    """Feed ``chunks`` to one edge connection, one arrival each, then
    the peer's EOF: (bytes written, half-closed, closed, statuses)."""
    registry = MetricsRegistry()

    async def scenario():
        edge = AsyncHttpEdge(_router, object_size=300, metrics=registry)
        listener = edge._listener
        connection = listener._connection(listener)
        wire = _Wire()
        connection.connection_made(wire)
        for chunk in chunks:
            if wire.closed:
                break
            assert wire.reading  # no fault plane: nothing is ever held
            connection.data_received(chunk)
        if not wire.closed and not connection.eof_received():
            wire.close()
        connection.connection_lost(None)
        return bytes(wire.out), wire.half_closed, wire.closed

    out, half_closed, closed = asyncio.run(scenario())
    family = registry.get("serve_http_requests_total")
    statuses = {labels[0]: child.value for labels, child in family.children()}
    return out, half_closed, closed, statuses


_requests = st.fixed_dictionaries({
    "method": st.sampled_from(["GET", "GET", "HEAD", "POST"]),
    "version": st.sampled_from(["1.1", "1.1", "1.0"]),
    "path": st.sampled_from(["/content/a.ipsw", "/content/b.ipsw?x=1", "/"]),
    "range": st.sampled_from([None, "bytes=0-15", "bytes=10-", "bytes=500-600",
                              "bytes=oops"]),
    "connection": st.sampled_from([None, None, "keep-alive", "close"]),
    "body": st.sampled_from([None, None, b"", b"x=1"]),
    "vip": st.sampled_from(["17.253.0.1", "17.253.0.1", None, "not-an-ip"]),
    "newline": st.sampled_from([b"\r\n", b"\r\n", b"\n"]),
    "blank_lines": st.integers(min_value=0, max_value=1),
})


def _encode(request: dict) -> bytes:
    lines = [f"{request['method']} {request['path']} HTTP/{request['version']}",
             "Host: appldnld.apple.com"]
    if request["vip"] is not None:
        lines.append(f"X-Vip: {request['vip']}")
    if request["range"] is not None:
        lines.append(f"Range: {request['range']}")
    if request["connection"] is not None:
        lines.append(f"Connection: {request['connection']}")
    body = request["body"]
    if body is not None:
        lines.append(f"Content-Length: {len(body)}")
    newline = request["newline"]
    head = newline.join(line.encode() for line in lines) + newline * 2
    return newline * request["blank_lines"] + head + (body or b"")


_OVERSIZED = b"GET /x HTTP/1.1\r\nX-Pad: " + b"a" * 17_000 + b"\r\n\r\n"


@settings(max_examples=200, deadline=None)
@given(
    requests=st.lists(_requests, min_size=1, max_size=6),
    oversized=st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
    data=st.data(),
)
def test_any_cut_of_a_request_stream_is_answered_as_the_whole(requests, oversized, data):
    parts = [_encode(request) for request in requests]
    if oversized is not None:
        parts.insert(min(oversized, len(parts)), _OVERSIZED)
    stream = b"".join(parts)
    cuts = sorted(set(data.draw(
        st.lists(st.integers(min_value=1, max_value=len(stream) - 1), max_size=24)
    )))
    chunks = [stream[a:b] for a, b in zip([0, *cuts], [*cuts, len(stream)])]

    whole = _answer([stream])
    assert _answer(chunks) == whole
    out, half_closed, closed, statuses = whole
    # Each answer went out whole: a head and exactly its declared body.
    answered = sum(statuses.values())
    assert out.count(b"HTTP/1.1 ") == answered >= 1
    assert closed and half_closed == (b"Connection: close" in out
                                      or b"400 Bad Request\r\nContent-Length" in out)


def test_byte_at_a_time_is_answered_as_the_whole():
    stream = b"".join(_encode(request) for request in [
        {"method": "GET", "version": "1.1", "path": "/content/a.ipsw",
         "range": "bytes=0-15", "connection": None, "body": None,
         "vip": "17.253.0.1", "newline": b"\r\n", "blank_lines": 1},
        {"method": "HEAD", "version": "1.1", "path": "/content/a.ipsw",
         "range": None, "connection": "close", "body": None,
         "vip": "17.253.0.1", "newline": b"\n", "blank_lines": 0},
    ])
    whole = _answer([stream])
    assert _answer([stream[i:i + 1] for i in range(len(stream))]) == whole
    assert whole[3] == {"206": 1, "200": 1}


def _slow_start(vip: str, seconds: float) -> FaultInjector:
    return FaultInjector(
        FaultSchedule([FaultWindow(0.0, 3600.0, vip, FaultKind.SLOW_START, seconds)]),
        metrics=MetricsRegistry(),
    )


def test_a_delayed_answer_holds_back_the_requests_behind_it(serve_estate):
    slow, fast = serve_estate.apple.sites[0].vip_addresses[:2]

    def request(vip, last):
        return (
            f"GET /content/held.ipsw HTTP/1.1\r\nHost: appldnld.apple.com\r\n"
            f"X-Vip: {vip}\r\nRange: bytes=0-{last}\r\n\r\n"
        ).encode()

    async def scenario():
        edge = AsyncHttpEdge(
            estate_router(serve_estate), faults=_slow_start(str(slow), 0.3)
        )
        host, port = await edge.start()
        reader, writer = await asyncio.open_connection(host, port)
        loop = asyncio.get_running_loop()
        started = loop.time()
        lengths, times = [], []
        try:
            # Pipelined: slow, fast, slow.  The fast one is ready at
            # once but must wait its turn.
            writer.write(request(slow, 0) + request(fast, 1) + request(slow, 2))
            for _ in range(3):
                head = (await reader.readuntil(b"\r\n\r\n")).decode("latin-1")
                length = int(head.split("Content-Length: ")[1].split("\r\n")[0])
                await reader.readexactly(length)
                lengths.append(length)
                times.append(loop.time() - started)
        finally:
            writer.close()
            await edge.stop()
        return lengths, times

    lengths, times = asyncio.run(scenario())
    assert lengths == [1, 2, 3]
    assert 0.28 <= times[0] and times[1] - times[0] < 0.2
    assert 0.58 <= times[2] < 3.0


def test_a_peer_that_pipelines_and_never_reads_stalls_the_connection(serve_estate):
    """256 KiB GETs the peer never reads: the edge answers until the
    transport's buffer passes its high-water mark, then stops reading —
    its own buffer stays at one answer past the mark."""
    vip = serve_estate.apple.sites[0].vip_addresses[0]
    count = 64  # 16 MiB of answers, past the kernel's buffers for them
    request = (
        "GET /content/unread.ipsw HTTP/1.1\r\nHost: appldnld.apple.com\r\n"
        f"X-Vip: {vip}\r\nRange: bytes=0-262143\r\n\r\n"
    ).encode()
    registry = MetricsRegistry()

    async def scenario():
        edge = AsyncHttpEdge(
            estate_router(serve_estate), object_size=262_144, metrics=registry
        )
        host, port = await edge.start()
        # A fixed, small receive buffer on the peer: the kernel cannot
        # absorb the answers by growing it.
        peer = socket.socket()
        peer.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 65536)
        peer.connect((host, port))
        peer.setblocking(False)
        reader, writer = await asyncio.open_connection(sock=peer)
        try:
            writer.write(request * count)
            await writer.drain()
            await asyncio.sleep(0.5)
            (connection,) = edge._listener._connections
            transport = connection.transport
            _low, high = transport.get_write_buffer_limits()
            stalled = (
                transport.get_write_buffer_size(), high, transport.is_reading(),
                connection.busy,
                registry.get("serve_http_requests_total").labels("206").value,
            )
            # Reading the answers resumes the connection to the end.
            received = 0
            for _ in range(count):
                head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), 10.0)
                assert b"Content-Length: 262144\r\n" in head
                received += len(await reader.readexactly(262_144))
            return stalled, received
        finally:
            writer.close()
            await edge.stop()

    (buffered, high, reading, busy, answered), received = asyncio.run(scenario())
    assert not reading and busy
    assert answered < count
    assert 0 < buffered <= high + 262_144 + 1024
    assert received == count * 262_144
