"""Tests for repro.serve.loadgen and the cluster end to end."""

import asyncio
import socket

import pytest

from repro.dns.records import ARecord, CnameRecord
from repro.faults import FaultSchedule
from repro.faults.chaos import _live_section
from repro.net.ipv4 import IPv4Address
from repro.obs import NULL_TRACER, MetricsRegistry, use_registry
from repro.obs.registry import HistogramChild
from repro.serve import (
    ClientDirectory,
    ClusterConfig,
    LoadConfig,
    LoadGenerator,
    LoadReport,
    SelftestReport,
    ServeCluster,
    WireResolution,
    build_serve_estate,
    merge_load_reports,
)
from repro.serve.harness import drive_watched


class TestDnsMessageIds:
    """``AsyncDnsClient._next_id``: cyclic over 1..65535, never in flight."""

    def _client(self):
        from repro.serve.dnsclient import AsyncDnsClient, _DnsClientProtocol

        client = AsyncDnsClient("127.0.0.1", 53)  # never connected: no socket
        client._protocol = _DnsClientProtocol()
        return client

    def test_wrap_never_repeats_an_id_back_to_back(self):
        client = self._client()
        drawn = [client._next_id() for _ in range(2 * 65536 + 100)]
        assert len(drawn) > 131_072
        assert all(1 <= message_id <= 0xFFFF for message_id in drawn)
        assert all(a != b for a, b in zip(drawn, drawn[1:]))
        # The old allocator went ..., 65535, 1, 1, 2; a full cycle now
        # visits each id exactly once.
        assert drawn[65534:65537] == [65535, 1, 2]
        assert sorted(drawn[:65535]) == list(range(1, 65536))

    def test_ids_with_a_live_waiter_are_skipped(self):
        client = self._client()
        in_flight = {1, 2, 3, 40_000, 65535}
        for message_id in in_flight:
            client._protocol.waiters[message_id] = object()
        drawn = [client._next_id() for _ in range(2 * 65536 + 100)]
        assert not in_flight & set(drawn)
        assert all(a != b for a, b in zip(drawn, drawn[1:]))
        # Answered: the id returns to the rotation.
        del client._protocol.waiters[40_000]
        assert 40_000 in {client._next_id() for _ in range(65535)}

    def test_exhaustion_is_an_error_not_a_shared_id(self):
        from repro.serve.loadgen import DnsClientError

        client = self._client()
        client._protocol.waiters.update(dict.fromkeys(range(1, 65536)))
        with pytest.raises(DnsClientError, match="in flight"):
            client._next_id()


class TestWireResolution:
    def _resolution(self):
        return WireResolution(
            question_name="appldnld.apple.com",
            steps=(
                (CnameRecord("appldnld.apple.com", "a.akadns.net", 21600),),
                (
                    CnameRecord("a.akadns.net", "a.gslb.applimg.com", 15),
                    ARecord("a.gslb.applimg.com", IPv4Address.parse("17.0.0.1"), 15),
                ),
            ),
        )

    def test_chain_views(self):
        resolution = self._resolution()
        assert resolution.chain_names == (
            "appldnld.apple.com", "a.akadns.net", "a.gslb.applimg.com",
        )
        assert resolution.final_name == "a.gslb.applimg.com"
        assert resolution.addresses == (IPv4Address.parse("17.0.0.1"),)
        assert len(resolution.cname_chain) == 2
        assert len(resolution.records) == 3

    def test_mirrors_resolution_exactly_on_one_cname_per_hop(self):
        from repro.dns.query import Question
        from repro.dns.resolver import Resolution, ResolutionStep

        def both(hops):
            memory = Resolution(
                Question("appldnld.apple.com"),
                tuple(ResolutionStep(hop[0].name, "Op", hop) for hop in hops),
            )
            return memory, WireResolution("appldnld.apple.com", hops)

        def views(r):
            return r.chain_names, r.cname_chain, r.addresses, r.final_name

        address = IPv4Address.parse("17.0.0.1")
        memory, wire = both((
            (CnameRecord("appldnld.apple.com", "a.akadns.net", 21600),),
            (CnameRecord("a.akadns.net", "a.gslb.applimg.com", 15),),
            (ARecord("a.gslb.applimg.com", address, 15),),
        ))
        assert views(wire) == views(memory)
        # A flattened answer (CNAME plus its target's A records in one
        # message) is where the two part, as WireResolution documents:
        # the wire views list what was received, Resolution's the walk.
        memory, wire = both(self._resolution().steps)
        assert wire.final_name == "a.gslb.applimg.com"
        assert memory.final_name == "a.akadns.net"
        assert wire.addresses == memory.addresses == (address,)


class TestLoadConfig:
    def test_defaults_are_valid(self):
        config = LoadConfig()
        assert config.requests == 5000
        assert config.public_resolver_share is None  # the edge's own

    @pytest.mark.parametrize(
        "field,value",
        [("requests", 0), ("concurrency", -1)],
    )
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            LoadConfig(**{field: value})


class TestLoadReport:
    def _report(self, **overrides):
        values = dict(
            requests=100, ok=100, errors=0, elapsed_seconds=2.0,
            dns_queries=460, dns_timeouts=0, tcp_fallbacks=0,
            body_bytes=6_553_600,
        )
        values.update(overrides)
        return LoadReport(**values)

    def test_rates_derive_from_elapsed(self):
        report = self._report()
        assert report.dns_qps == pytest.approx(230.0)
        assert report.http_rps == pytest.approx(50.0)
        assert report.healthy()

    def test_unhealthy_on_errors_or_shortfall(self):
        assert not self._report(errors=1, ok=99).healthy()
        assert not self._report(ok=90).healthy()

    def test_render_mentions_the_key_numbers(self):
        text = self._report().render()
        assert "qps" in text
        assert "p50" in text and "p99" in text
        assert "100" in text


class TestClusterEndToEnd:
    def test_small_drive_is_clean_and_instrumented(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            estate = build_serve_estate(ClusterConfig(servers_per_metro=4))
            cluster = ServeCluster(
                estate=estate,
                directory=ClientDirectory.from_adoption(),
                metrics=registry,
            )

            async def scenario():
                async with cluster:
                    return await cluster.drive(
                        LoadConfig(requests=200, concurrency=16)
                    )

            report = asyncio.run(scenario())

        assert report.healthy(), report.error_samples
        assert report.ok == 200
        # Every request walks the multi-hop chain: several wire queries
        # per closed-loop request.
        assert report.dns_queries >= 2 * 200
        assert report.dns_p50_ms > 0.0 and report.dns_p99_ms > 0.0
        assert report.http_p50_ms > 0.0 and report.http_p99_ms > 0.0
        assert report.body_bytes == 200 * 65536

        # The shared registry saw both sides of every exchange.
        served = registry.get("serve_dns_queries_total")
        sent = registry.get("loadgen_dns_queries_total")
        assert served is not None and sent is not None
        assert sum(c.value for _, c in served.children()) == report.dns_queries
        assert sent.value == report.dns_queries
        http_family = registry.get("serve_http_requests_total")
        assert http_family.labels("206").value == 200
        cache_family = registry.get("cache_requests_total")
        assert sum(c.value for _, c in cache_family.children()) > 0

        verdict = SelftestReport(report, registry)
        checks = verdict.checks(qps_floor=10.0)
        assert all(passed for _label, passed in checks)
        rendered = verdict.render(qps_floor=10.0)
        assert "selftest PASSED" in rendered
        assert "cache lookups" in rendered

    def test_cluster_context_manager_restarts(self):
        estate = build_serve_estate(ClusterConfig(servers_per_metro=4))

        async def scenario():
            cluster = ServeCluster(estate=estate)
            async with cluster:
                first = cluster.dns.endpoint
            # Fully stopped: endpoints are gone.
            with pytest.raises(RuntimeError):
                _ = cluster.dns.endpoint
            return first

        host, port = asyncio.run(scenario())
        assert host == "127.0.0.1"
        assert port > 0


class TestMergeLoadReports:
    """The fold behind ``drive_watched``: the batches ran back to back,
    so counts and elapsed add, and percentiles come off the merged
    histograms."""

    COUNTS = (
        "requests", "ok", "errors", "dns_queries", "dns_timeouts",
        "tcp_fallbacks", "body_bytes", "retries", "reresolutions", "hedged",
        "shed",
    )

    def _drive(self, batches):
        """One report per batch size, the batches run one after another
        against one cluster pinned at t=0."""

        async def scenario():
            estate = build_serve_estate(ClusterConfig(servers_per_metro=4))
            async with ServeCluster(estate=estate, clock=lambda: 0.0) as cluster:
                return [
                    await cluster.drive(LoadConfig(
                        requests=requests, concurrency=8, hedge=None,
                    ))
                    for requests in batches
                ]

        return asyncio.run(scenario())

    def test_back_to_back_batches_fold_to_their_sums(self):
        parts = self._drive([70, 50, 80])
        folded = merge_load_reports(parts)
        assert all(p.healthy() for p in parts) and folded.healthy()
        for name in self.COUNTS:
            assert getattr(folded, name) == sum(getattr(p, name) for p in parts)
        assert (folded.requests, folded.ok) == (200, 200)
        assert folded.elapsed_seconds == sum(p.elapsed_seconds for p in parts)

    def test_folded_percentiles_are_those_of_the_merged_histograms(self):
        parts = self._drive([40, 40, 40])
        folded = merge_load_reports(parts)
        for side in ("dns", "http"):
            merged = HistogramChild.merge(
                [getattr(p, f"{side}_latency") for p in parts]
            )
            assert merged.count == 120
            panel = {k: v * 1000.0 for k, v in merged.percentile_summary().items()}
            assert getattr(folded, f"{side}_percentiles_ms") == panel
            assert getattr(folded, f"{side}_p50_ms") == panel["p50"]
            assert getattr(folded, f"{side}_p99_ms") == panel["p99"]

    def test_error_samples_keep_the_first_five_in_order(self):
        def report(samples):
            return LoadReport(
                requests=len(samples), ok=0, errors=len(samples),
                elapsed_seconds=1.0, dns_queries=0, dns_timeouts=0,
                tcp_fallbacks=0, body_bytes=0, error_samples=samples,
            )

        folded = merge_load_reports(
            [report(("a", "b", "c")), None, report(("d", "e", "f"))]
        )
        assert folded.error_samples == ("a", "b", "c", "d", "e")
        assert folded.errors == 6

    def test_one_report_is_returned_as_is_and_none_is_an_error(self):
        (only,) = self._drive([10])
        assert merge_load_reports([None, only]) is only
        with pytest.raises(ValueError):
            merge_load_reports([None])


class TestErrorAccounting:
    def test_every_failed_request_is_counted_not_just_the_samples(self):
        """A dead HTTP port fails all 150 requests: the report counts 150
        (the sample list stops at a handful), and the chaos gate fed that
        report fails its error budget."""
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            dead_http = holder.getsockname()

        async def scenario():
            estate = build_serve_estate(ClusterConfig(servers_per_metro=4))
            async with ServeCluster(estate=estate) as cluster:
                return await LoadGenerator(
                    dns_endpoint=cluster.dns.endpoint,
                    http_endpoint=dead_http,
                    directory=cluster.directory,
                    config=LoadConfig(
                        requests=150, concurrency=16, http_retries=0,
                        hedge=None,
                    ),
                    metrics=MetricsRegistry(),
                ).run()

        report = asyncio.run(scenario())
        assert (report.requests, report.ok, report.errors) == (150, 0, 150)
        assert 0 < len(report.error_samples) <= 5
        section = _live_section(
            FaultSchedule.parse(["vip-outage@Apple:1-9:0.2"]),
            report, watched=0, resteer=None, recovery=None, unhealthy=0,
        )
        assert dict(section.checks)["client error rate below 2%"] is False
        assert section.fields["errors"] == 150


class TestDriveWatched:
    def test_back_to_back_batches_add_their_time(self):
        """The chaos drill's single loop runs batches one after another
        until its clock passes ``until``: the folded report spans that
        time, so its rates are not inflated by the batch count."""

        async def watch(_dns_endpoint, _directory, _clock):
            return "watched"

        until = 1.0
        report, watched = drive_watched(
            ClusterConfig(servers_per_metro=4),
            LoadConfig(requests=20, concurrency=4, hedge=None),
            until, watch, MetricsRegistry(), NULL_TRACER,
        )
        assert watched == "watched"
        batches = report.requests // 20
        assert report.requests == 20 * batches and batches >= 2
        assert report.healthy()
        # Every batch but the last started before ``until``, so together
        # they ran for most of it; one batch alone takes a fraction.
        assert report.elapsed_seconds >= 0.5 * until
