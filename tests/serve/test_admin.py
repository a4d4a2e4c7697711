"""The live admin plane: /metrics, /healthz, /traces off a running cluster."""

import asyncio
import json
from unittest import mock

import pytest

from repro.obs import (
    EventTracer,
    MetricsRegistry,
    parse_exposition,
    parsed_histogram,
    use_registry,
)
from repro.serve import (
    ClientDirectory,
    ClusterConfig,
    LoadConfig,
    ServeCluster,
    build_serve_estate,
)


async def _get(endpoint, target: str) -> tuple[int, dict, str]:
    """Minimal HTTP GET against the admin listener (same event loop)."""
    host, port = endpoint
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(
        f"GET {target} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode()
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    return status, headers, body.decode("utf-8")


def _drive_and_scrape(targets, requests=120):
    """Boot a traced cluster, drive load, fetch each admin target."""
    registry = MetricsRegistry()
    tracer = EventTracer()
    with use_registry(registry):
        estate = build_serve_estate(ClusterConfig(servers_per_metro=4))
        cluster = ServeCluster(
            estate=estate,
            directory=ClientDirectory.from_adoption(),
            metrics=registry,
            tracer=tracer,
        )

        async def scenario():
            async with cluster:
                await cluster.drive(
                    LoadConfig(requests=requests, concurrency=8)
                )
                return [
                    await _get(cluster.admin.endpoint, target)
                    for target in targets
                ]

        return asyncio.run(scenario())


class TestMetricsEndpoint:
    def test_scrape_round_trips_through_the_parser(self):
        [(status, headers, body)] = _drive_and_scrape(["/metrics"])
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        assert headers["connection"] == "close"
        families = parse_exposition(body)
        total = sum(
            value
            for (name, _), value in families["serve_dns_queries_total"].samples.items()
            if name == "serve_dns_queries_total"
        )
        assert total >= 120
        # The scraped latency histogram supports the same percentile
        # machinery local children have (what `repro top` renders).
        child = parsed_histogram(families["serve_http_handle_seconds"])
        assert child.count >= 120
        panel = child.percentile_summary()
        assert 0.0 < panel["p50"] <= panel["p999"]


class TestHealthEndpoint:
    def test_ok_without_a_monitor(self):
        [(status, _, body)] = _drive_and_scrape(["/healthz"], requests=5)
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["members"] == {}

    def test_reports_member_states(self):
        from repro.faults import CdnHealthMonitor, health

        with mock.patch.multiple(
            health, K_FAILURES=1, DEFAULT_MEMBERS=("Akamai", "Limelight")
        ):
            monitor = CdnHealthMonitor()
        from repro.serve.admin import AdminServer

        server = AdminServer(
            registry=MetricsRegistry(), tracer=EventTracer(),
            health_monitor=monitor,
        )

        async def scenario():
            endpoint = await server.start()
            healthy = await _get(endpoint, "/healthz")
            monitor.record_probe("Limelight", ok=False, now=1.0)
            degraded = await _get(endpoint, "/healthz")
            await server.stop()
            return healthy, degraded

        (ok_status, _, ok_body), (bad_status, _, bad_body) = asyncio.run(
            scenario()
        )
        assert ok_status == 200
        assert json.loads(ok_body)["members"] == {
            "Akamai": "healthy", "Limelight": "healthy",
        }
        assert bad_status == 503
        degraded = json.loads(bad_body)
        assert degraded["status"] == "degraded"
        assert degraded["members"]["Limelight"] == "unhealthy"


class TestTracesEndpoint:
    def test_tail_returns_complete_chains_as_jsonl(self):
        [(status, headers, body)] = _drive_and_scrape(["/traces?tail=5"])
        assert status == 200
        assert headers["content-type"] == "application/x-ndjson"
        chains = [json.loads(line) for line in body.splitlines()]
        assert 1 <= len(chains) <= 5
        for chain in chains:
            assert chain["complete"] is True
            names = {span["name"] for span in chain["spans"]}
            assert "client.request" in names

    def test_bad_tail_is_rejected(self):
        [(status, _, body)] = _drive_and_scrape(["/traces?tail=bogus"],
                                                requests=5)
        assert status == 400
        assert "integer" in body


class TestRouting:
    def test_unknown_route_is_404(self):
        [(status, _, _)] = _drive_and_scrape(["/nope"], requests=5)
        assert status == 404

    def test_post_is_rejected(self):
        registry = MetricsRegistry()
        from repro.serve.admin import AdminServer

        server = AdminServer(registry=registry, tracer=EventTracer())

        async def scenario():
            endpoint = await server.start()
            host, port = endpoint
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"POST /metrics HTTP/1.1\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            await server.stop()
            return raw

        raw = asyncio.run(scenario())
        assert b" 405 " in raw.split(b"\r\n", 1)[0]

    def test_endpoint_requires_start(self):
        from repro.serve.admin import AdminServer

        server = AdminServer(registry=MetricsRegistry(), tracer=EventTracer())
        with pytest.raises(RuntimeError):
            _ = server.endpoint
