"""Tests for the resolver's cache accounting and DNS telemetry."""

import pytest

from repro.dns import ResolverCacheStats
from repro.dns.policies import CnamePolicy, GslbAddressPolicy
from repro.dns.query import QueryContext
from repro.dns.resolver import RecursiveResolver
from repro.dns.zone import AuthoritativeServer, Zone
from repro.net.geo import Continent, Coordinates
from repro.net.ipv4 import IPv4Address
from repro.obs import MetricsRegistry, use_registry


def make_context(now=0.0):
    return QueryContext(
        client=IPv4Address.parse("198.51.100.7"),
        coordinates=Coordinates(52.52, 13.40),
        continent=Continent.EUROPE,
        country="de",
        now=now,
    )


@pytest.fixture
def estate():
    """The miniature Figure 2 chain: apple.com -> akadns -> GSLB A records."""
    apple_zone = Zone("apple.com")
    apple_zone.bind(
        "appldnld.apple.com",
        CnamePolicy("appldnld.apple.com.akadns.net", ttl=21600),
    )
    applimg_zone = Zone("applimg.com")
    pool = [IPv4Address.parse(f"17.253.0.{i}").value for i in range(1, 5)]
    applimg_zone.bind(
        "a.gslb.applimg.com",
        GslbAddressPolicy(pool=lambda ctx: pool, ttl=20, answer_count=2),
    )
    akadns_zone = Zone("akadns.net")
    akadns_zone.bind(
        "appldnld.apple.com.akadns.net",
        CnamePolicy("a.gslb.applimg.com", ttl=120),
    )
    return [
        AuthoritativeServer("Apple", [apple_zone, applimg_zone]),
        AuthoritativeServer("Akamai", [akadns_zone]),
    ]


class TestCacheStats:
    def test_fresh_resolver_is_all_zero(self, estate):
        stats = RecursiveResolver(estate, cache=True).cache_stats()
        assert stats == ResolverCacheStats(hits=0, misses=0, evictions=0, size=0)
        assert stats.requests == 0

    def test_misses_then_hits(self, estate):
        resolver = RecursiveResolver(estate, cache=True)
        resolver.resolve("appldnld.apple.com", make_context(now=0))
        first = resolver.cache_stats()
        assert first.hits == 0
        assert first.misses == 3  # one per chain hop
        assert first.size == 3

        resolver.resolve("appldnld.apple.com", make_context(now=5))
        second = resolver.cache_stats()
        assert second.hits == 3
        assert second.misses == 3
        assert second.requests == 6

    def test_from_cache_flags_match_the_stats(self, estate):
        resolver = RecursiveResolver(estate, cache=True)
        cold = resolver.resolve("appldnld.apple.com", make_context(now=0))
        assert not any(step.from_cache for step in cold.steps)
        warm = resolver.resolve("appldnld.apple.com", make_context(now=5))
        assert all(step.from_cache for step in warm.steps)
        assert resolver.cache_stats().hits == len(warm.steps)

    def test_ttl_expiry_counts_as_eviction(self, estate):
        resolver = RecursiveResolver(estate, cache=True)
        resolver.resolve("appldnld.apple.com", make_context(now=0))
        # GSLB A records carry TTL 20; at now=30 that entry is expired.
        again = resolver.resolve("appldnld.apple.com", make_context(now=30))
        stats = resolver.cache_stats()
        assert stats.evictions == 1
        assert stats.misses == 4  # the three cold misses plus the refresh
        gslb = [s for s in again.steps if s.name == "a.gslb.applimg.com"]
        assert gslb and not gslb[0].from_cache

    def test_flush_resets_size_but_not_counts(self, estate):
        resolver = RecursiveResolver(estate, cache=True)
        resolver.resolve("appldnld.apple.com", make_context(now=0))
        resolver.flush()
        stats = resolver.cache_stats()
        assert stats.size == 0
        assert stats.misses == 3
        assert stats.evictions == 0  # flush is not an eviction

    def test_disabled_cache_never_counts_hits(self, estate):
        resolver = RecursiveResolver(estate, cache=False)
        resolver.resolve("appldnld.apple.com", make_context(now=0))
        resolver.resolve("appldnld.apple.com", make_context(now=1))
        stats = resolver.cache_stats()
        assert stats.hits == 0
        assert stats.size == 0


class TestResolverMetrics:
    def test_queries_counted_per_operator(self, estate):
        registry = MetricsRegistry()
        with use_registry(registry):
            resolver = RecursiveResolver(estate, cache=True)
        resolver.resolve("appldnld.apple.com", make_context(now=0))
        queries = registry.get("dns_queries_total")
        assert queries.labels("Apple").value == 2  # entry CNAME + GSLB A
        assert queries.labels("Akamai").value == 1
        answers = registry.get("dns_answer_records_total")
        assert answers.labels("Apple").value == 3  # 1 CNAME + 2 A records

    def test_cache_metrics_follow_the_plain_counters(self, estate):
        registry = MetricsRegistry()
        with use_registry(registry):
            resolver = RecursiveResolver(estate, cache=True)
        resolver.resolve("appldnld.apple.com", make_context(now=0))
        resolver.resolve("appldnld.apple.com", make_context(now=5))
        stats = resolver.cache_stats()
        assert registry.get("dns_cache_hits_total").value == stats.hits
        assert registry.get("dns_cache_misses_total").value == stats.misses

    def test_chain_length_histogram(self, estate):
        registry = MetricsRegistry()
        with use_registry(registry):
            resolver = RecursiveResolver(estate, cache=False)
        resolver.resolve("appldnld.apple.com", make_context(now=0))
        chain = registry.get("dns_cname_chain_length").labels()
        assert chain.count == 1
        assert chain.sum == 3.0  # appldnld -> akadns -> gslb
