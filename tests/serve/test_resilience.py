"""Tests for repro.serve.resilience and its wiring into the load
generator: backoff, circuit breaker, hedged GSLB lookups, TTL-aware
re-resolution, and graceful HTTP teardown under in-flight requests."""

import asyncio

import pytest

from repro.dns.records import RecordType, ResourceRecord
from repro.faults import FaultInjector, FaultKind, FaultSchedule, FaultWindow
from repro.net.ipv4 import IPv4Address
from repro.obs import MetricsRegistry
from repro.serve import (
    AsyncHttpEdge,
    BackoffPolicy,
    CircuitBreaker,
    HedgePolicy,
    estate_router,
)
from repro.serve import dnsclient, loadgen, resilience
from repro.serve.loadgen import (
    AsyncDnsClient,
    DnsClientError,
    LoadConfig,
    LoadGenerator,
    WireResolution,
)


def run(coroutine):
    return asyncio.run(coroutine)


class TestBackoffPolicy:
    def test_exponential_growth_and_cap(self, monkeypatch):
        monkeypatch.setattr(resilience, "BACKOFF_BASE", 0.1)
        monkeypatch.setattr(resilience, "BACKOFF_CAP", 0.5)
        monkeypatch.setattr(resilience, "BACKOFF_JITTER", 0.0)
        policy = BackoffPolicy()
        assert policy.delay(0) == pytest.approx(0.1)
        assert policy.delay(1) == pytest.approx(0.2)
        assert policy.delay(2) == pytest.approx(0.4)
        assert policy.delay(3) == pytest.approx(0.5)  # capped
        assert policy.delay(10) == pytest.approx(0.5)

    def test_jitter_is_bounded_and_deterministic(self, monkeypatch):
        monkeypatch.setattr(resilience, "BACKOFF_BASE", 0.1)
        policy = BackoffPolicy()
        delays = [policy.delay(1, "http", seq) for seq in range(50)]
        assert delays == [policy.delay(1, "http", seq) for seq in range(50)]
        for delay in delays:
            assert 0.1 <= delay <= 0.2  # raw*(1-jitter) .. raw
        assert len(set(delays)) > 1  # jitter actually spreads retries

    def test_key_changes_the_jitter(self):
        policy = BackoffPolicy()
        assert policy.delay(0, "a") != policy.delay(0, "b")


class TestCircuitBreaker:
    @pytest.fixture
    def make(self, monkeypatch):
        def breaker(failures, cooldown=1.0):
            monkeypatch.setattr(resilience, "BREAKER_FAILURES", failures)
            monkeypatch.setattr(resilience, "BREAKER_COOLDOWN", cooldown)
            clock = [0.0]
            return CircuitBreaker(clock=lambda: clock[0]), clock

        return breaker

    def test_opens_after_threshold(self, make):
        breaker, _clock = make(failures=3)
        for _ in range(2):
            breaker.record_failure("17.0.0.1")
        assert breaker.state("17.0.0.1") == "closed"
        assert breaker.allow("17.0.0.1")
        breaker.record_failure("17.0.0.1")
        assert breaker.state("17.0.0.1") == "open"
        assert not breaker.allow("17.0.0.1")
        assert breaker.opened_total == 1
        # Other targets are unaffected.
        assert breaker.allow("17.0.0.2")

    def test_half_open_single_trial(self, make):
        breaker, clock = make(failures=1, cooldown=1.0)
        breaker.record_failure("v")
        assert not breaker.allow("v")
        clock[0] = 1.5
        assert breaker.state("v") == "half-open"
        assert breaker.allow("v")       # the one trial
        assert not breaker.allow("v")   # a second caller is held back
        breaker.record_success("v")
        assert breaker.state("v") == "closed"
        assert breaker.allow("v")

    def test_failed_trial_reopens(self, make):
        breaker, clock = make(failures=1, cooldown=1.0)
        breaker.record_failure("v")
        clock[0] = 1.5
        assert breaker.allow("v")
        breaker.record_failure("v")     # trial failed: cooldown restarts
        assert not breaker.allow("v")
        clock[0] = 2.0                  # only 0.5 s into the new cooldown
        assert not breaker.allow("v")
        clock[0] = 2.6
        assert breaker.allow("v")

    def test_success_resets_streak(self, make):
        breaker, _clock = make(failures=2)
        breaker.record_failure("v")
        breaker.record_success("v")
        breaker.record_failure("v")
        assert breaker.state("v") == "closed"


class TestHedgePolicy:
    def test_maps_both_published_names(self):
        policy = HedgePolicy()
        assert policy.hedge_name("a.gslb.applimg.com") == "b.gslb.applimg.com"
        assert policy.hedge_name("b.gslb.applimg.com") == "a.gslb.applimg.com"
        assert policy.hedge_name("appldnld.apple.com") is None


@pytest.fixture
def hedged(monkeypatch):
    """A hedging client whose primary runs alone for ``budget`` seconds."""

    def client(budget):
        monkeypatch.setattr(dnsclient, "HEDGE_BUDGET", budget)
        return AsyncDnsClient(
            "127.0.0.1", 0, metrics=MetricsRegistry(), hedge=HedgePolicy(),
        )

    return client


CLIENT_ADDR = IPv4Address.parse("192.0.2.10")


class TestHedgedQuery:
    def test_fast_primary_never_hedges(self, hedged):
        async def scenario():
            dns = hedged(0.2)

            async def fake_query(name, client, **kwargs):
                return ("answer", name)

            dns.query = fake_query
            result = await dns._query_hedged(
                "a.gslb.applimg.com", "b.gslb.applimg.com", CLIENT_ADDR
            )
            assert result == ("answer", "a.gslb.applimg.com")
            assert dns.hedged_queries == 0
            assert dns.hedge_wins == 0

        run(scenario())

    def test_slow_primary_loses_to_fallback(self, hedged):
        async def scenario():
            dns = hedged(0.02)

            async def fake_query(name, client, **kwargs):
                if name.startswith("a."):
                    await asyncio.sleep(0.5)
                return ("answer", name)

            dns.query = fake_query
            result = await dns._query_hedged(
                "a.gslb.applimg.com", "b.gslb.applimg.com", CLIENT_ADDR
            )
            assert result == ("answer", "b.gslb.applimg.com")
            assert dns.hedged_queries == 1
            assert dns.hedge_wins == 1

        run(scenario())

    def test_failed_primary_falls_back_immediately(self, hedged):
        async def scenario():
            dns = hedged(5.0)

            async def fake_query(name, client, **kwargs):
                if name.startswith("a."):
                    raise DnsClientError("primary dead")
                return ("answer", name)

            dns.query = fake_query
            result = await dns._query_hedged(
                "a.gslb.applimg.com", "b.gslb.applimg.com", CLIENT_ADDR
            )
            assert result == ("answer", "b.gslb.applimg.com")
            assert dns.hedged_queries == 1
            assert dns.hedge_wins == 1

        run(scenario())

    def test_both_failing_raises(self, hedged):
        async def scenario():
            dns = hedged(0.02)

            async def fake_query(name, client, **kwargs):
                await asyncio.sleep(0.05)
                raise DnsClientError(f"{name} dead")

            dns.query = fake_query
            with pytest.raises(DnsClientError):
                await dns._query_hedged(
                    "a.gslb.applimg.com", "b.gslb.applimg.com", CLIENT_ADDR
                )

        run(scenario())


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
        monkeypatch.setattr(loadgen, "RESOLUTION_MAX_AGE", 0.005)
        monkeypatch.setattr(resilience, "BACKOFF_BASE", 0.02)
        monkeypatch.setattr(resilience, "BACKOFF_JITTER", 0.0)
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
        monkeypatch.setattr(resilience, "BACKOFF_BASE", 0.001)
        monkeypatch.setattr(resilience, "BACKOFF_JITTER", 0.0)
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

    def _request(self, vip, path="/content/teardown.ipsw"):
        return (
            f"GET {path} HTTP/1.1\r\n"
            "Host: appldnld.apple.com\r\n"
            f"X-Vip: {vip}\r\n"
            f"X-Client: {vip}\r\n"
            "Range: bytes=0-1023\r\n"
            "\r\n"
        )

    def test_stop_mid_request_sends_clean_close(self, serve_estate):
        async def scenario():
            # A slow-start fault keeps the request in flight long enough
            # for stop() to begin while it is being served.
            injector = FaultInjector(
                FaultSchedule(
                    [FaultWindow(0.0, 3600.0, "*", FaultKind.SLOW_START, 0.4)]
                ),
                metrics=MetricsRegistry(),
            )
            edge = AsyncHttpEdge(
                estate_router(serve_estate),
                metrics=MetricsRegistry(), faults=injector,
            )
            host, port = await edge.start()
            vip = serve_estate.apple.sites[0].vip_addresses[0]
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(self._request(vip).encode("latin-1"))
                await writer.drain()
                await asyncio.sleep(0.1)  # request is now inside the delay
                stopper = asyncio.create_task(edge.stop(grace=5.0))
                raw = await reader.read(-1)  # complete response, then EOF
                await stopper
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except ConnectionError:
                    pass
            text = raw.decode("latin-1")
            head, _sep, body = text.partition("\r\n\r\n")
            assert head.startswith("HTTP/1.1 206")
            assert "connection: close" in head.lower()
            length = int(
                [line for line in head.split("\r\n")
                 if line.lower().startswith("content-length")][0].split(":")[1]
            )
            assert length > 0
            assert len(body) == length  # Content-Length honoured in full

        run(scenario())

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
