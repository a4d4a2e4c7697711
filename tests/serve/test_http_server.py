"""Tests for repro.serve.httpserver — the live cache-edge HTTP server."""

import asyncio

import pytest

from repro.serve import AsyncHttpEdge, PooledHttpClient, estate_router


def run(coroutine):
    return asyncio.run(coroutine)


async def _raw_request(host, port, text):
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(text.encode("latin-1"))
    await writer.drain()
    writer.write_eof()
    raw = await reader.read(-1)
    writer.close()
    try:
        await writer.wait_closed()
    except ConnectionError:
        pass
    return raw.decode("latin-1")


class TestAsyncHttpEdge:
    def _edge(self, serve_estate, **kwargs):
        return AsyncHttpEdge(estate_router(serve_estate), **kwargs)

    def test_ranged_get_from_apple_vip(self, serve_estate):
        async def scenario():
            edge = self._edge(serve_estate, object_size=100_000)
            host, port = await edge.start()
            client = PooledHttpClient(host, port)
            vip = serve_estate.apple.sites[0].vip_addresses[0]
            try:
                status, headers, body_length = await client.get(
                    "/content/ios11-part000.ipsw",
                    host="appldnld.apple.com",
                    vip=vip,
                    client=vip,  # any address works as X-Client
                    range_bytes=(0, 4095),
                )
                assert status == 206
                assert body_length == 4096
                assert headers.get("Content-Range") == "bytes 0-4095/100000"
                # The model's hierarchy headers survive onto the wire.
                assert headers.get("Via") or headers.get("X-Cache")
                assert headers.get("X-Body-Size") == "100000"
            finally:
                await client.close()
                await edge.stop()

        run(scenario())

    def test_full_get_and_keep_alive_reuse(self, serve_estate):
        async def scenario():
            edge = self._edge(serve_estate, object_size=2048)
            host, port = await edge.start()
            client = PooledHttpClient(host, port, pool_size=1)
            vip = serve_estate.apple.sites[0].vip_addresses[0]
            try:
                for _ in range(3):  # sequential requests share the socket
                    status, _headers, body_length = await client.get(
                        "/content/full.ipsw",
                        host="appldnld.apple.com",
                        vip=vip,
                        client=vip,
                    )
                    assert status == 200
                    assert body_length == 2048
            finally:
                await client.close()
                await edge.stop()

        run(scenario())

    def test_third_party_vip_served(self, serve_estate):
        async def scenario():
            edge = self._edge(serve_estate)
            host, port = await edge.start()
            client = PooledHttpClient(host, port)
            akamai_vip = serve_estate.akamai.servers[0].server.address
            try:
                status, headers, _length = await client.get(
                    "/content/x.ipsw",
                    host="appldnld.apple.com",
                    vip=akamai_vip,
                    client=akamai_vip,
                    range_bytes=(0, 1023),
                )
                assert status == 206
                assert headers.get("Via") or headers.get("X-Cache")
            finally:
                await client.close()
                await edge.stop()

        run(scenario())

    def test_unknown_vip_is_404(self, serve_estate):
        async def scenario():
            edge = self._edge(serve_estate)
            host, port = await edge.start()
            client = PooledHttpClient(host, port)
            from repro.net.ipv4 import IPv4Address

            try:
                status, _headers, _length = await client.get(
                    "/x", host="appldnld.apple.com",
                    vip=IPv4Address.parse("192.0.2.1"),
                    client=IPv4Address.parse("192.0.2.1"),
                )
                assert status == 404
            finally:
                await client.close()
                await edge.stop()

        run(scenario())

    def test_missing_vip_header_is_400(self, serve_estate):
        async def scenario():
            edge = self._edge(serve_estate)
            host, port = await edge.start()
            try:
                raw = await _raw_request(
                    host, port,
                    "GET / HTTP/1.1\r\nHost: appldnld.apple.com\r\n\r\n",
                )
                assert raw.startswith("HTTP/1.1 400")
                assert "X-Vip" in raw
            finally:
                await edge.stop()

        run(scenario())

    def test_unsatisfiable_range_is_416(self, serve_estate):
        async def scenario():
            edge = self._edge(serve_estate, object_size=1000)
            host, port = await edge.start()
            client = PooledHttpClient(host, port)
            vip = serve_estate.apple.sites[0].vip_addresses[0]
            try:
                status, headers, _length = await client.get(
                    "/content/x.ipsw", host="appldnld.apple.com",
                    vip=vip, client=vip, range_bytes=(5000, 6000),
                )
                assert status == 416
                assert headers.get("Content-Range") == "bytes */1000"
            finally:
                await client.close()
                await edge.stop()

        run(scenario())

    def test_post_is_405(self, serve_estate):
        async def scenario():
            edge = self._edge(serve_estate)
            host, port = await edge.start()
            try:
                raw = await _raw_request(
                    host, port,
                    "POST / HTTP/1.1\r\nHost: a\r\nX-Vip: 17.0.0.1\r\n\r\n",
                )
                assert raw.startswith("HTTP/1.1 405")
            finally:
                await edge.stop()

        run(scenario())

    def test_head_sends_no_body(self, serve_estate):
        async def scenario():
            edge = self._edge(serve_estate, object_size=512)
            host, port = await edge.start()
            vip = serve_estate.apple.sites[0].vip_addresses[0]
            try:
                # A path no other test touched: the estate's caches are
                # session-shared and remember entity sizes per path.
                raw = await _raw_request(
                    host, port,
                    "HEAD /content/head-only.ipsw HTTP/1.1\r\n"
                    "Host: appldnld.apple.com\r\n"
                    f"X-Vip: {vip}\r\nConnection: close\r\n\r\n",
                )
                head, _, body = raw.partition("\r\n\r\n")
                assert head.startswith("HTTP/1.1 200")
                assert "Content-Length: 512" in head
                assert body == ""
            finally:
                await edge.stop()

        run(scenario())

    def test_malformed_request_line_is_400(self, serve_estate):
        async def scenario():
            edge = self._edge(serve_estate)
            host, port = await edge.start()
            try:
                raw = await _raw_request(host, port, "NOT-HTTP\r\n\r\n")
                assert raw.startswith("HTTP/1.1 400")
            finally:
                await edge.stop()

        run(scenario())

    def test_bad_object_size_rejected(self, serve_estate):
        with pytest.raises(ValueError):
            self._edge(serve_estate, object_size=0)


class TestRequestHeadDeadline:
    """One deadline per request head, not one per header line."""

    def test_trickled_head_is_dropped_at_the_deadline(self, serve_estate, monkeypatch):
        from repro.serve import httpserver

        monkeypatch.setattr(httpserver, "_READ_TIMEOUT", 0.4)

        async def scenario():
            edge = AsyncHttpEdge(estate_router(serve_estate))
            host, port = await edge.start()
            reader, writer = await asyncio.open_connection(host, port)
            loop = asyncio.get_running_loop()
            started = loop.time()
            try:
                # A line every 0.15 s: each arrives well inside a
                # per-line timeout of 0.4 s, the head never ends.
                writer.write(b"GET /content/slow.ipsw HTTP/1.1\r\n")
                dropped = asyncio.ensure_future(reader.read(-1))
                for index in range(40):
                    if dropped.done():
                        break
                    writer.write(f"X-Trickle-{index}: 1\r\n".encode())
                    await asyncio.sleep(0.15)
                raw = await asyncio.wait_for(dropped, timeout=5.0)
                elapsed = loop.time() - started
            finally:
                writer.close()
                await edge.stop()
            return raw, elapsed

        raw, elapsed = run(scenario())
        assert raw == b""  # hung up on, no response owed to half a head
        assert 0.35 <= elapsed < 2.0

    def test_an_idle_keep_alive_connection_is_closed_by_the_same_deadline(
        self, serve_estate, monkeypatch
    ):
        from repro.serve import httpserver

        monkeypatch.setattr(httpserver, "_READ_TIMEOUT", 0.3)

        async def scenario():
            edge = AsyncHttpEdge(estate_router(serve_estate), object_size=64)
            host, port = await edge.start()
            vip = serve_estate.apple.sites[0].vip_addresses[0]
            reader, writer = await asyncio.open_connection(host, port)
            try:
                # Bare LF line ends and a leading blank line still parse.
                writer.write(
                    b"\r\nGET /content/idle.ipsw HTTP/1.1\n"
                    b"Host: appldnld.apple.com\n"
                    + f"X-Vip: {vip}\n\n".encode()
                )
                head = await reader.readuntil(b"\r\n\r\n")
                body = await reader.readexactly(64)
                rest = await asyncio.wait_for(reader.read(-1), timeout=5.0)
            finally:
                writer.close()
                await edge.stop()
            return head, body, rest

        head, body, rest = run(scenario())
        assert head.startswith(b"HTTP/1.1 200") and b"keep-alive" in head
        assert body == bytes(64) and rest == b""


    def test_one_timer_per_connection_and_none_outlives_it(
        self, serve_estate, deadline_timers
    ):
        async def scenario():
            edge = AsyncHttpEdge(estate_router(serve_estate), object_size=64)
            host, port = await edge.start()
            client = PooledHttpClient(host, port, pool_size=1)
            vip = serve_estate.apple.sites[0].vip_addresses[0]
            seen = []

            async def fetch(times):
                for _ in range(times):
                    await client.get(
                        "/content/timers.ipsw", host="appldnld.apple.com",
                        vip=vip, client=vip,
                    )
                    seen.append({id(timer) for timer in deadline_timers()})

            await fetch(20)
            # The client's connection closes; the edge reads its EOF.
            await client.close()
            for _ in range(50):
                if not deadline_timers():
                    break
                await asyncio.sleep(0.01)
            after_close = len(deadline_timers())
            # A second connection, this time torn down server first.
            await fetch(1)
            await edge.stop()
            after_stop = len(deadline_timers())  # the client's, still pooled
            await client.close()
            return seen, after_close, after_stop, len(deadline_timers())

        seen, after_close, after_stop, at_end = run(scenario())
        # Twenty requests, the same two timers throughout: the edge's
        # connection's and the client's.
        assert all(timers == seen[0] for timers in seen[:20])
        assert len(seen[0]) == 2
        assert (after_close, after_stop, at_end) == (0, 1, 0)


class TestDeclaredRequestBody:
    """The edge reads no request body, so a request that declares one
    is the last on its connection: left there, the body would be parsed
    as the next request."""

    SMUGGLED = b"GET /smuggled HTTP/1.1\r\nHost: x\r\nX-Vip: 1.2.3.4\r\n\r\n"

    def _exchange(self, serve_estate, head: bytes, body: bytes):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()

        async def scenario():
            edge = AsyncHttpEdge(estate_router(serve_estate), metrics=registry)
            host, port = await edge.start()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                # No half-close: the peer stays connected, as a client
                # waiting for its second response would.
                writer.write(head + body)
                return await asyncio.wait_for(reader.read(-1), timeout=5.0)
            finally:
                writer.close()
                await edge.stop()

        raw = run(scenario()).decode("latin-1")
        counted = {
            labels[0]: child.value
            for labels, child in registry.get("serve_http_requests_total").children()
        }
        return raw, counted

    def test_a_posted_body_is_not_parsed_as_the_next_request(self, serve_estate):
        assert len(self.SMUGGLED) == 51
        raw, counted = self._exchange(
            serve_estate,
            b"POST /x HTTP/1.1\r\nHost: x\r\nContent-Length: 51\r\n\r\n",
            self.SMUGGLED,
        )
        assert raw.count("HTTP/1.1 ") == 1  # one response, then EOF
        assert raw.startswith("HTTP/1.1 405 ")
        assert "Connection: close" in raw and "keep-alive" not in raw
        assert counted == {"405": 1}

    def test_a_get_that_declares_a_body_is_answered_then_closed(self, serve_estate):
        vip = serve_estate.apple.sites[0].vip_addresses[0]
        for declaration in ("Content-Length: 51", "Transfer-Encoding: chunked"):
            raw, counted = self._exchange(
                serve_estate,
                (
                    "GET /content/declared.ipsw HTTP/1.1\r\n"
                    f"Host: appldnld.apple.com\r\nX-Vip: {vip}\r\n"
                    f"Range: bytes=0-15\r\n{declaration}\r\n\r\n"
                ).encode(),
                self.SMUGGLED,
            )
            assert raw.count("HTTP/1.1 ") == 1
            assert raw.startswith("HTTP/1.1 206 ") and "Connection: close" in raw
            assert counted == {"206": 1}

    def test_a_declared_empty_body_keeps_the_connection(self, serve_estate):
        vip = serve_estate.apple.sites[0].vip_addresses[0]
        request = (
            "GET /content/empty-body.ipsw HTTP/1.1\r\n"
            f"Host: appldnld.apple.com\r\nX-Vip: {vip}\r\n"
            "Range: bytes=0-15\r\nContent-Length: 0\r\n\r\n"
        ).encode()

        async def scenario():
            edge = AsyncHttpEdge(estate_router(serve_estate))
            host, port = await edge.start()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(request + request)  # pipelined: both answered
                heads = []
                for _ in range(2):
                    heads.append(await reader.readuntil(b"\r\n\r\n"))
                    await reader.readexactly(16)
                return heads
            finally:
                writer.close()
                await edge.stop()

        for head in run(scenario()):
            assert head.startswith(b"HTTP/1.1 206 ") and b"keep-alive" in head


class TestSharedZeroBody:
    """Bodies are views of one zero buffer; the wire cannot tell."""

    def _get(self, serve_estate, object_size, path, range_bytes=None):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()

        async def scenario():
            edge = AsyncHttpEdge(
                estate_router(serve_estate), object_size=object_size,
                metrics=registry,
            )
            host, port = await edge.start()
            vip = serve_estate.apple.sites[0].vip_addresses[0]
            reader, writer = await asyncio.open_connection(host, port)
            request = (
                f"GET {path} HTTP/1.1\r\nHost: appldnld.apple.com\r\n"
                f"X-Vip: {vip}\r\nConnection: close\r\n"
            )
            if range_bytes is not None:
                request += f"Range: bytes={range_bytes[0]}-{range_bytes[1]}\r\n"
            try:
                writer.write((request + "\r\n").encode())
                raw = await reader.read(-1)
            finally:
                writer.close()
                await edge.stop()
            return raw

        head, _, body = run(scenario()).partition(b"\r\n\r\n")
        sent = registry.counter(
            "serve_http_body_bytes_total", "Body bytes written to clients"
        ).value
        return head.decode("latin-1"), body, sent

    def test_ranged_body_is_the_asked_zeros(self, serve_estate):
        head, body, sent = self._get(
            serve_estate, 262_144, "/content/zeros-a.ipsw", (100, 65_635)
        )
        assert head.startswith("HTTP/1.1 206")
        assert "Content-Length: 65536" in head
        assert body == bytes(65_536) and sent == 65_536

    def test_entity_larger_than_the_buffer_still_served_whole(self, serve_estate):
        from repro.serve import httpserver

        size = len(httpserver._ZEROS) + 4096
        head, body, sent = self._get(serve_estate, size, "/content/zeros-b.ipsw")
        assert head.startswith("HTTP/1.1 200")
        assert f"Content-Length: {size}" in head
        assert body == bytes(size) and sent == size

    def test_the_buffer_is_read_only(self):
        from repro.serve import httpserver

        assert httpserver._zeros(16).readonly
        with pytest.raises(TypeError):
            httpserver._zeros(16)[0] = 1


class TestServedHeadersLeaveTheCachesAlone:
    """The edge edits the model response's headers in place
    (``Content-Range``, ``X-Body-Size``, ``Connection``): every router
    path must hand back headers of its own, never what a cache stores."""

    PATH = "/content/stored-metadata.ipsw"

    def _request(self, vip, client):
        return (
            f"GET {self.PATH} HTTP/1.1\r\nHost: appldnld.apple.com\r\n"
            f"X-Vip: {vip}\r\nX-Client: {client}\r\nRange: bytes=0-15\r\n\r\n"
        ).encode()

    def test_miss_lx_hit_and_bx_hit_leave_stored_metadata_unchanged(self, serve_estate):
        from repro.http.messages import Headers, HttpRequest
        from repro.net.ipv4 import IPv4Address

        site = serve_estate.apple.sites[0].groups[0]
        vip = site.vip.address
        key = f"appldnld.apple.com{self.PATH}"
        caches = [server.cache for server in (*site.edge_bx, site.edge_lx)]

        def edge_for(client):
            return site.choose_edge(HttpRequest(
                "GET", "appldnld.apple.com", self.PATH,
                Headers({"X-Client": str(client)}),
            ))

        first = IPv4Address.parse("100.64.0.1")
        other = next(
            client for client in (IPv4Address(first.value + i) for i in range(1, 200))
            if edge_for(client) is not edge_for(first)
        )

        def stored():
            return [
                list(cache.metadata(key)) if cache.contains(key) else None
                for cache in caches
            ]

        async def scenario():
            edge = AsyncHttpEdge(estate_router(serve_estate), object_size=4096)
            host, port = await edge.start()
            reader, writer = await asyncio.open_connection(host, port)
            verdicts, snapshots = [], []
            try:
                # miss (origin fetch), bx hit, lx hit on another edge-bx
                for client in (first, first, other):
                    writer.write(self._request(vip, client))
                    head = (await reader.readuntil(b"\r\n\r\n")).decode("latin-1")
                    await reader.readexactly(16)
                    verdicts.append(
                        [line for line in head.split("\r\n")
                         if line.startswith("X-Cache:")][0]
                    )
                    snapshots.append(stored())
            finally:
                writer.close()
                await edge.stop()
            return verdicts, snapshots

        verdicts, snapshots = run(scenario())
        assert verdicts == [
            "X-Cache: miss, miss, Hit from cloudfront",
            "X-Cache: hit-fresh, miss, Hit from cloudfront",
            "X-Cache: miss, hit-fresh, Hit from cloudfront",
        ]
        # What the first request stored is what every later one finds.
        assert snapshots[0] == snapshots[1]
        assert snapshots[2][:-1] != snapshots[1][:-1]  # the lx hit admitted
        assert snapshots[2][-1] == snapshots[0][-1]
        for fields in (fields for snap in snapshots for fields in snap if fields):
            names = {name for name, _value in fields}
            assert not names & {"Content-Range", "X-Body-Size", "Connection"}
