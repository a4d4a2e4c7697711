"""An oversized or trickled HTTP head has defined behaviour on every socket.

A header line past asyncio's 64 KiB ``StreamReader`` limit used to
raise ``ValueError`` out of ``readline()`` — uncaught in the edge (the
loop's exception handler logged it, the peer got a bare EOF, nothing
was counted) and, on the client, an exception the
load generator's retry path does not know.  With the one head reader
(:func:`repro.http.wire.read_head`) the servers answer ``400`` and the
client raises ``ConnectionError``.
"""

import asyncio

import pytest

from repro.obs import MetricsRegistry
from repro.serve import AsyncHttpEdge, PooledHttpClient, estate_router

HUGE = b"a" * 70_000


def run_watched(scenario):
    """Run ``scenario``; returns (its result, what reached the loop's
    exception handler)."""
    reached = []

    async def wrapped():
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: reached.append(context)
        )
        return await scenario()

    return asyncio.run(wrapped()), reached


async def exchange(endpoint, payload: bytes) -> bytes:
    """Send ``payload`` and read to EOF (the peer stays connected: no
    half-close, so the server cannot mistake the overflow for a hang-up)."""
    reader, writer = await asyncio.open_connection(*endpoint)
    writer.write(payload)
    await writer.drain()
    raw = await asyncio.wait_for(reader.read(-1), timeout=5.0)
    writer.close()
    try:
        await writer.wait_closed()
    except ConnectionError:
        pass
    return raw


@pytest.mark.parametrize("newline", [b"", b"\r\n\r\n"], ids=["unterminated", "terminated"])
class TestOversizedRequestHead:
    def test_edge_answers_400_and_counts_it(self, serve_estate, newline):
        registry = MetricsRegistry()

        async def scenario():
            edge = AsyncHttpEdge(estate_router(serve_estate), metrics=registry)
            endpoint = await edge.start()
            try:
                return await exchange(
                    endpoint, b"GET /x HTTP/1.1\r\nX-Pad: " + HUGE + newline
                )
            finally:
                await edge.stop()

        raw, reached = run_watched(scenario)
        assert raw.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert b"request head too large" in raw
        assert reached == []
        assert registry.get("serve_http_requests_total").labels("400").value == 1


def test_edge_answers_400_past_its_own_byte_limit(serve_estate):
    """Short lines, 20 KiB in all: under the stream's line limit, over
    the edge's 16 KiB head budget — silently dropped before."""
    registry = MetricsRegistry()
    head = b"GET /x HTTP/1.1\r\n" + b"X-Pad: " + b"a" * 1000 + b"\r\n"
    head = head + (b"X-Pad: " + b"a" * 1000 + b"\r\n") * 19 + b"\r\n"

    async def scenario():
        edge = AsyncHttpEdge(estate_router(serve_estate), metrics=registry)
        endpoint = await edge.start()
        try:
            return await exchange(endpoint, head)
        finally:
            await edge.stop()

    raw, reached = run_watched(scenario)
    assert raw.startswith(b"HTTP/1.1 400 ")
    assert reached == []
    assert registry.get("serve_http_requests_total").labels("400").value == 1


def test_client_raises_connection_error_on_an_oversized_response_head():
    """``ConnectionError`` is what ``LoadGenerator._attempts`` retries
    and counts; the ``ValueError`` it used to get skipped the retry."""

    async def canned(reader, writer):
        await reader.readuntil(b"\r\n\r\n")
        writer.write(b"HTTP/1.1 200 OK\r\nX-Pad: " + HUGE + b"\r\n\r\n")
        await writer.drain()
        writer.close()

    async def scenario():
        server = await asyncio.start_server(canned, "127.0.0.1", 0)
        client = PooledHttpClient(*server.sockets[0].getsockname()[:2])
        try:
            with pytest.raises(ConnectionError):
                await client.get(
                    "/x", host="appldnld.apple.com",
                    vip="17.253.0.1", client="100.64.0.1",
                )
        finally:
            await client.close()
            server.close()
            await server.wait_closed()

    _result, reached = run_watched(scenario)
    assert reached == []


def test_the_400_survives_a_peer_still_sending(serve_estate):
    """The peer is still sending its oversized head, 64 KiB at a time,
    when the ``400`` goes out: the edge half-closes and reads it out, so
    every later send goes through and the peer then reads the answer
    and a clean EOF — closing over the unread bytes would reset the
    connection under the peer."""

    async def scenario():
        edge = AsyncHttpEdge(estate_router(serve_estate), metrics=MetricsRegistry())
        reader, writer = await asyncio.open_connection(*await edge.start())
        try:
            writer.write(b"GET /x HTTP/1.1\r\nX-Pad: ")
            for _ in range(12):
                writer.write(b"a" * 65536)
                await writer.drain()
                await asyncio.sleep(0.02)
            return await asyncio.wait_for(reader.read(-1), timeout=5.0)
        finally:
            writer.close()
            await edge.stop()

    raw, reached = run_watched(scenario)
    assert raw.startswith(b"HTTP/1.1 400 Bad Request\r\n")
    assert raw.endswith(b"request head too large\n") and reached == []
