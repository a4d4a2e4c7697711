"""The load generator's TTL-aware re-resolution across HTTP retries, and
graceful HTTP teardown under in-flight requests."""

import asyncio
import socket

from repro.dns.records import RecordType, ResourceRecord
from repro.net.ipv4 import IPv4Address
from repro.obs import MetricsRegistry
from repro.serve import AsyncHttpEdge, estate_router
from repro.serve import loadgen
from repro.serve.loadgen import LoadConfig, LoadGenerator, WireResolution


def run(coroutine):
    return asyncio.run(coroutine)


class _FakeDns:
    """Counts resolves; answers a one-hop chain ending at one vip."""

    def __init__(self):
        self.calls = 0

    async def resolve(self, name, client):
        self.calls += 1
        record = ResourceRecord(
            name, RecordType.A, 15, IPv4Address.parse("17.0.0.1")
        )
        return WireResolution(question_name=name, steps=((record,),))


class _FlakyHttp:
    """First request dies on the transport; the rest succeed."""

    def __init__(self):
        self.calls = 0

    async def get(self, path, host, vip, client, range_bytes=None):
        self.calls += 1
        if self.calls == 1:
            raise ConnectionError("edge went away mid-request")
        return 206, {}, 1024


class TestTtlReresolution:
    def test_retry_past_ttl_resolves_fresh_chain(self, monkeypatch):
        """Satellite: a retry whose cached chain outlived the 15 s
        selection TTL must re-resolve instead of replaying stale vips."""
        monkeypatch.setattr(loadgen, "RESOLUTION_MAX_AGE", 0.0)
        config = LoadConfig(requests=1, concurrency=1, http_retries=1)
        generator = LoadGenerator(
            ("127.0.0.1", 0), ("127.0.0.1", 0),
            config=config, metrics=MetricsRegistry(),
        )
        dns, http = _FakeDns(), _FlakyHttp()

        run(generator._one_request(dns, http, seq=0))

        assert http.calls == 2               # transport error, then 206
        assert dns.calls == 2                # the retry re-resolved
        assert generator._retry_count == 1
        assert generator._reresolution_count == 1

    def test_fast_retry_reuses_cached_chain(self, monkeypatch):
        monkeypatch.setattr(loadgen, "RESOLUTION_MAX_AGE", 30.0)
        config = LoadConfig(requests=1, concurrency=1, http_retries=1)
        generator = LoadGenerator(
            ("127.0.0.1", 0), ("127.0.0.1", 0),
            config=config, metrics=MetricsRegistry(),
        )
        dns, http = _FakeDns(), _FlakyHttp()

        run(generator._one_request(dns, http, seq=0))

        assert http.calls == 2
        assert dns.calls == 1                # chain still fresh: reused
        assert generator._reresolution_count == 0


class TestGracefulTeardown:
    """Satellite: stop() must drain in-flight keep-alive requests to a
    complete response with ``Connection: close`` — never a reset."""

    def _request(self, vip, path="/content/teardown.ipsw", last=1023):
        return (
            f"GET {path} HTTP/1.1\r\n"
            "Host: appldnld.apple.com\r\n"
            f"X-Vip: {vip}\r\n"
            f"X-Client: {vip}\r\n"
            f"Range: bytes=0-{last}\r\n"
            "\r\n"
        )

    def test_stop_mid_request_sends_clean_close(self, serve_estate):
        """A 256 KiB answer the peer has not read yet, and a request
        pipelined behind it: stop() lets the connection finish both —
        the second goes out with ``Connection: close`` — then EOF."""

        async def scenario():
            edge = AsyncHttpEdge(
                estate_router(serve_estate), object_size=262_144,
                metrics=MetricsRegistry(),
            )
            host, port = await edge.start()
            vip = serve_estate.apple.sites[0].vip_addresses[0]
            loop = asyncio.get_running_loop()
            # A peer that does not read, and small socket buffers at both
            # ends: the kernel cannot absorb the answer, so the edge's
            # transport pauses writing and the connection is mid-request.
            peer = socket.socket()
            peer.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            peer.setblocking(False)
            try:
                await loop.sock_connect(peer, (host, port))
                for _ in range(200):
                    if edge._listener._connections:
                        break
                    await asyncio.sleep(0.01)
                (connection,) = edge._listener._connections
                connection.transport.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
                )
                await loop.sock_sendall(peer, (
                    self._request(vip, last=262_143) + self._request(vip)
                ).encode("latin-1"))
                for _ in range(200):
                    if connection.busy:
                        break
                    await asyncio.sleep(0.01)
                assert connection.busy
                stopper = asyncio.create_task(edge.stop(grace=5.0))
                await asyncio.sleep(0.1)  # stop() is draining the busy peer
                raw = bytearray()
                while chunk := await loop.sock_recv(peer, 65536):
                    raw += chunk  # both answers, then EOF
                await stopper
            finally:
                peer.close()
            return bytes(raw)

        raw = run(scenario()).decode("latin-1")
        answers = []
        while raw:
            head, _sep, rest = raw.partition("\r\n\r\n")
            length = int(
                [line for line in head.split("\r\n")
                 if line.lower().startswith("content-length")][0].split(":")[1]
            )
            answers.append((head, len(rest[:length])))
            raw = rest[length:]
        assert [head.split("\r\n")[0] for head, _ in answers] == [
            "HTTP/1.1 206 Partial Content", "HTTP/1.1 206 Partial Content",
        ]
        assert [body for _, body in answers] == [262_144, 1024]  # in full
        assert "connection: keep-alive" in answers[0][0].lower()
        assert "connection: close" in answers[1][0].lower()

    def test_stop_closes_idle_keep_alive_connections(self, serve_estate):
        async def scenario():
            edge = AsyncHttpEdge(
                estate_router(serve_estate), metrics=MetricsRegistry()
            )
            host, port = await edge.start()
            vip = serve_estate.apple.sites[0].vip_addresses[0]
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(self._request(vip).encode("latin-1"))
                await writer.drain()
                # Read exactly the first response; the socket stays open.
                head = b""
                while b"\r\n\r\n" not in head:
                    head += await reader.read(1)
                length = int(
                    [line for line in head.decode("latin-1").split("\r\n")
                     if line.lower().startswith("content-length")][0]
                    .split(":")[1]
                )
                await reader.readexactly(length)
                assert b"keep-alive" in head.lower()
                await edge.stop()
                # The idle connection ends in a clean EOF, not a reset.
                assert await reader.read(-1) == b""
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except ConnectionError:
                    pass

        run(scenario())
