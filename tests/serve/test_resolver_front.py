"""The public-resolver front: shared POP caches over real sockets.

Boots a :class:`~repro.serve.cluster.ServeCluster` with a public
resolver population (clock pinned, so steering answers are
deterministic) and checks the front end to end: ECS-on equivalence
with the direct authoritative path, honest-scope cache sharing across
/24s of one vantage, ECS-off dilution to one entry per POP, and the
selftest surface that guards it all.
"""

import asyncio

import pytest

from repro.net.ipv4 import IPv4Address
from repro.obs import MetricsRegistry, use_registry
from repro.serve import (
    ClusterConfig,
    LoadConfig,
    PublicResolverFront,
    SelftestReport,
    ServeCluster,
)
from repro.serve.loadgen import AsyncDnsClient

ENTRY = "appldnld.apple.com"

DE_CLIENT = IPv4Address.parse("100.64.7.9")     # de-frankfurt vantage
DE_SIBLING = IPv4Address.parse("100.64.9.77")   # same /16, different /24
AU_CLIENT = IPv4Address.parse("100.72.3.5")     # au-sydney vantage


def run_cluster(test, **config_kwargs):
    """Boot a pinned-clock cluster, run ``test(cluster)`` inside it."""
    registry = MetricsRegistry()

    async def _run():
        cluster = ServeCluster(
            config=ClusterConfig(**config_kwargs),
            clock=lambda: 0.0,
            metrics=registry,
        )
        async with cluster:
            return await test(cluster)

    with use_registry(registry):
        result = asyncio.run(_run())
    return result, registry


class TestEcsOnFront:
    def test_front_matches_direct_path_and_keeps_steering(self):
        async def scenario(cluster):
            front = await AsyncDnsClient.open(*cluster.resolver_front.endpoint)
            direct = await AsyncDnsClient.open(*cluster.dns.endpoint)
            try:
                results = {}
                for label, client in (("de", DE_CLIENT), ("au", AU_CLIENT)):
                    via_front = await front.resolve(ENTRY, client)
                    via_direct = await direct.resolve(ENTRY, client)
                    assert via_front.chain_names == via_direct.chain_names
                    assert via_front.addresses == via_direct.addresses
                    results[label] = via_front.addresses
                return results
            finally:
                front.close()
                direct.close()

        results, _ = run_cluster(scenario, resolver_population="public")
        # Steering must survive the shared cache: the two geographies
        # are answered from different partitions.
        assert results["de"] != results["au"]

    def test_honest_scope_shares_entries_across_24s(self):
        async def scenario(cluster):
            front = await AsyncDnsClient.open(*cluster.resolver_front.endpoint)
            try:
                await front.resolve(ENTRY, DE_CLIENT)
                warm = cluster.resolver_front.cache_stats()
                await front.resolve(ENTRY, DE_SIBLING)
                after = cluster.resolver_front.cache_stats()
            finally:
                front.close()
            return warm, after

        (warm, after), _ = run_cluster(scenario, resolver_population="public")
        # The authoritative echoes scope /16 (the vantage granularity),
        # so the sibling /24 hits every entry the first client warmed —
        # zero extra misses, zero extra entries.
        assert after["misses"] == warm["misses"]
        assert after["size"] == warm["size"]
        assert after["hits"] > warm["hits"]

    def test_repeat_chain_is_all_hits(self):
        async def scenario(cluster):
            front = await AsyncDnsClient.open(*cluster.resolver_front.endpoint)
            try:
                await front.resolve(ENTRY, DE_CLIENT)
                warm = cluster.resolver_front.cache_stats()
                await front.resolve(ENTRY, DE_CLIENT)
                after = cluster.resolver_front.cache_stats()
            finally:
                front.close()
            return warm, after

        (warm, after), _ = run_cluster(scenario, resolver_population="public")
        assert after["misses"] == warm["misses"]
        assert after["hits"] > warm["hits"]


class TestEcsOffFront:
    def test_pop_clients_share_one_entry_per_name(self):
        async def scenario(cluster):
            front = await AsyncDnsClient.open(*cluster.resolver_front.endpoint)
            try:
                first = await front.resolve(ENTRY, DE_CLIENT)
                warm = cluster.resolver_front.cache_stats()
                second = await front.resolve(ENTRY, DE_SIBLING)
                after = cluster.resolver_front.cache_stats()
            finally:
                front.close()
            return first, second, warm, after

        (first, second, warm, after), _ = run_cluster(
            scenario,
            resolver_population="public",
            public_resolver_ecs=False,
        )
        # Without ECS the POP's anchor is the only identity upstream:
        # both clients share one entry per name and the same answers.
        assert second.addresses == first.addresses
        assert after["misses"] == warm["misses"]
        assert after["size"] == warm["size"]


class TestDriveAndSelftest:
    def test_mixed_drive_populates_dilution_metrics(self):
        async def scenario(cluster):
            report = await cluster.drive(
                LoadConfig(requests=120, concurrency=8)
            )
            return report, cluster.resolver_front.cache_stats()

        (report, stats), registry = run_cluster(
            scenario,
            resolver_population="mixed",
            public_resolver_share=0.5,
        )
        assert report.errors == 0
        assert stats["hits"] + stats["misses"] > 0
        checks = dict(SelftestReport(report, registry).checks(qps_floor=0.0))
        assert checks["public-resolver cache-dilution metrics present"]

    def test_isp_population_boots_no_front(self):
        async def scenario(cluster):
            return cluster.resolver_front

        front, registry = run_cluster(scenario, resolver_population="isp")
        assert front is None
        labels = [
            label for label, _ in SelftestReport(
                _dummy_report(), registry
            ).checks(qps_floor=0.0)
        ]
        assert "public-resolver cache-dilution metrics present" not in labels


def _dummy_report():
    from repro.serve.loadgen import LoadReport

    return LoadReport(
        requests=1, ok=1, errors=0, elapsed_seconds=1.0, dns_queries=1,
        dns_timeouts=0, tcp_fallbacks=0, body_bytes=1, dns_p50_ms=1.0,
        dns_p99_ms=1.0, http_p50_ms=1.0, http_p99_ms=1.0,
    )


class TestConfigValidation:
    def test_bad_population_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(resolver_population="open")

    def test_bad_share_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(resolver_population="mixed", public_resolver_share=1.5)

    def test_bad_loadgen_share_rejected(self):
        with pytest.raises(ValueError):
            LoadConfig(public_resolver_share=-0.1)

    def test_front_validation(self):
        with pytest.raises(ValueError):
            PublicResolverFront(pops=())
        with pytest.raises(ValueError):
            PublicResolverFront(scope=40)
        with pytest.raises(ValueError):
            PublicResolverFront(cache_capacity=0)

    def test_loadgen_share_derivation(self):
        assert ClusterConfig().loadgen_resolver_share == 0.0
        assert ClusterConfig(
            resolver_population="public", public_resolver_share=0.25
        ).loadgen_resolver_share == 1.0
        assert ClusterConfig(
            resolver_population="mixed", public_resolver_share=0.25
        ).loadgen_resolver_share == 0.25
