"""``PooledHttpClient`` against canned responders: what it must refuse."""

import asyncio

import pytest

from repro.serve import PooledHttpClient


def get_from(response: bytes):
    """One ``get`` against a server that answers every request with
    ``response``; returns (the outcome, connections left open)."""

    async def canned(reader, writer):
        try:
            while True:
                await reader.readuntil(b"\r\n\r\n")
                writer.write(response)
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()

    async def scenario():
        server = await asyncio.start_server(canned, "127.0.0.1", 0)
        client = PooledHttpClient(*server.sockets[0].getsockname()[:2])
        try:
            try:
                outcome = await client.get(
                    "/x", host="appldnld.apple.com",
                    vip="17.253.0.1", client="100.64.0.1",
                )
            except Exception as exc:  # the assertion is on its type
                outcome = exc
            return outcome, len(client._open)
        finally:
            await client.close()
            server.close()
            await server.wait_closed()

    return asyncio.run(scenario())


@pytest.mark.parametrize("fields", [
    b"Content-Length: abc\r\n",
    b"Content-Length: -5\r\n",
    b"Content-Length: 5\r\nContent-Length: 7\r\n",
], ids=["not-a-number", "negative", "two-that-disagree"])
def test_a_malformed_content_length_is_a_connection_error(fields):
    """``ConnectionError`` is what the load generator retries and reports
    to the vip's circuit breaker; the bare ``ValueError`` out of
    ``int()`` was neither."""
    outcome, left_open = get_from(b"HTTP/1.1 200 OK\r\n" + fields + b"\r\nhello")
    assert isinstance(outcome, ConnectionError)
    assert "Content-Length" in str(outcome)
    assert left_open == 0  # discarded: its framing cannot be trusted


def test_a_plain_content_length_still_frames_the_body():
    (status, headers, received), left_open = get_from(
        b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello"
    )
    assert (status, received, left_open) == (200, 5, 1)
    assert headers.get("content-length") == "5"


def test_no_content_length_is_no_body():
    (status, _headers, received), _ = get_from(b"HTTP/1.1 200 OK\r\n\r\n")
    assert (status, received) == (200, 0)


def test_a_timeout_fails_the_exchange_in_progress_alone():
    """One response timer per connection, re-armed by each exchange:
    the quick answers before a stalled one are untouched, the stalled
    one is a ``TimeoutError`` at its own deadline, and the connection
    it leaves behind is dropped."""

    async def stalls_on_the_fourth(reader, writer):
        try:
            for _ in range(3):
                await reader.readuntil(b"\r\n\r\n")
                writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
            await reader.read()  # never answers the fourth
        finally:
            writer.close()

    async def scenario():
        server = await asyncio.start_server(stalls_on_the_fourth, "127.0.0.1", 0)
        client = PooledHttpClient(
            *server.sockets[0].getsockname()[:2], pool_size=1, timeout=0.2
        )
        loop = asyncio.get_running_loop()
        try:
            quick = []
            for _ in range(3):
                await asyncio.sleep(0.1)  # the pending timer outlives no wait
                quick.append(await client.get(
                    "/x", host="appldnld.apple.com",
                    vip="17.253.0.1", client="100.64.0.1",
                ))
            started = loop.time()
            with pytest.raises(asyncio.TimeoutError):
                await client.get(
                    "/x", host="appldnld.apple.com",
                    vip="17.253.0.1", client="100.64.0.1",
                )
            return [q[0] for q in quick], loop.time() - started, len(client._open)
        finally:
            await client.close()
            server.close()
            await server.wait_closed()

    statuses, waited, left_open = asyncio.run(scenario())
    assert statuses == [200, 200, 200]
    assert 0.18 <= waited < 1.0 and left_open == 0
