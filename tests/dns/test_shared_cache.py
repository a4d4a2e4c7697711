"""Regression tests for shared (public-resolver) TTL caches.

The cache key bug these pin down: a cache shared by many clients used
to key entries by qname alone, so the first client's geo-steered
answer was replayed to every later client regardless of where they
sat.  ``cache_scope`` partitions the cache by the announced ECS scope;
per-client resolvers keep the degenerate bare-qname key and therefore
their historical byte-identical behaviour.
"""

import pytest

from repro.dns.policies import CnamePolicy, GslbAddressPolicy
from repro.dns.query import QueryContext
from repro.dns.resolver import RecursiveResolver
from repro.dns.zone import AuthoritativeServer, Zone
from repro.net.geo import Continent, Coordinates
from repro.net.ipv4 import IPv4Address

DE_EDGE = IPv4Address.parse("17.253.1.1")
AU_EDGE = IPv4Address.parse("17.253.2.1")


def context(client: str, country: str, now: float = 0.0) -> QueryContext:
    geography = {
        "de": (Coordinates(50.11, 8.68), Continent.EUROPE),
        "au": (Coordinates(-33.87, 151.21), Continent.OCEANIA),
    }
    coordinates, continent = geography[country]
    return QueryContext(
        client=IPv4Address.parse(client),
        coordinates=coordinates,
        continent=continent,
        country=country,
        now=now,
    )


@pytest.fixture
def steering_estate():
    """A chain whose terminal answer depends on the client's country."""
    apple_zone = Zone("apple.com")
    apple_zone.bind(
        "appldnld.apple.com",
        CnamePolicy("a.gslb.applimg.com", ttl=21600),
    )
    applimg_zone = Zone("applimg.com")
    applimg_zone.bind(
        "a.gslb.applimg.com",
        GslbAddressPolicy(
            pool=lambda ctx: [(DE_EDGE if ctx.country == "de" else AU_EDGE).value],
            ttl=20,
            answer_count=1,
        ),
    )
    return [AuthoritativeServer("Apple", [apple_zone, applimg_zone])]


class TestSharedCachePartitioning:
    def test_clients_in_different_countries_get_their_own_steering(
        self, steering_estate
    ):
        # The headline regression: one shared ECS-aware cache, a German
        # client resolves first, an Australian client right after — the
        # Australian must NOT receive the answer steered for Germany.
        shared = RecursiveResolver(steering_estate, cache=True, cache_scope=16)
        first = shared.resolve(
            "appldnld.apple.com", context("100.64.0.7", "de", now=0.0)
        )
        second = shared.resolve(
            "appldnld.apple.com", context("100.72.0.9", "au", now=1.0)
        )
        assert first.addresses == (DE_EDGE,)
        assert second.addresses == (AU_EDGE,)

    def test_clients_in_one_partition_share_the_entry(self, steering_estate):
        shared = RecursiveResolver(steering_estate, cache=True, cache_scope=16)
        shared.resolve("appldnld.apple.com", context("100.64.0.7", "de", now=0.0))
        warm = shared.resolve(
            "appldnld.apple.com", context("100.64.1.9", "de", now=1.0)
        )
        assert all(step.from_cache for step in warm.steps)
        assert warm.addresses == (DE_EDGE,)

    def test_ecs_off_shared_cache_is_one_worldwide_partition(
        self, steering_estate
    ):
        # cache_scope=0 models a public resolver with ECS disabled: the
        # whole world shares one partition per name, so the Australian
        # client *does* see the German answer — that is exactly the
        # mapping inaccuracy the analysis plane measures, and it must
        # be a modelling choice, not an accident of the key.
        shared = RecursiveResolver(steering_estate, cache=True, cache_scope=0)
        shared.resolve("appldnld.apple.com", context("100.64.0.7", "de", now=0.0))
        diluted = shared.resolve(
            "appldnld.apple.com", context("100.72.0.9", "au", now=1.0)
        )
        assert all(step.from_cache for step in diluted.steps)
        assert diluted.addresses == (DE_EDGE,)

    def test_per_client_resolver_keeps_degenerate_key(self, steering_estate):
        # cache_scope=None is the per-client resolver: keys are the bare
        # qname, preserving the historical behaviour byte-for-byte
        # (answers computed for its one client are trivially valid).
        resolver = RecursiveResolver(steering_estate, cache=True)
        resolver.resolve("appldnld.apple.com", context("100.64.0.7", "de", now=0.0))
        assert resolver.cache_size == 2  # one entry per chain name
        # ... and nothing of the client is in the key: a query from the
        # other side of the world is served the very same two entries.
        elsewhere = resolver.resolve(
            "appldnld.apple.com", context("100.72.0.9", "au", now=1.0)
        )
        assert all(step.from_cache for step in elsewhere.steps)
        assert elsewhere.addresses == (DE_EDGE,)
        assert resolver.cache_size == 2

    def test_cache_key_shapes(self, steering_estate):
        per_client = RecursiveResolver(steering_estate, cache=True)
        shared = RecursiveResolver(steering_estate, cache=True, cache_scope=24)
        ctx = context("100.64.3.7", "de")
        assert per_client.cache_key("a.example.com", ctx) == "a.example.com"
        name, network = shared.cache_key("a.example.com", ctx)
        assert name == "a.example.com"
        assert network == IPv4Address.parse("100.64.3.0")


class TestLiveSizeAccounting:
    def test_expired_entries_leave_the_live_size(self, steering_estate):
        # Lazy expiry leaves the dict entry in place until its key is
        # touched again; the *live* size must not count it.
        shared = RecursiveResolver(steering_estate, cache=True, cache_scope=16)
        shared.resolve("appldnld.apple.com", context("100.64.0.7", "de", now=0.0))
        assert shared.cache_stats().size == 2
        # A different partition advances the horizon without touching
        # the German entries; the TTL-20 GSLB answer is now stale.
        shared.resolve("appldnld.apple.com", context("100.72.0.9", "au", now=30.0))
        stats = shared.cache_stats()
        assert stats.size == 3  # live: de-CNAME, au-CNAME, au-GSLB
        assert stats.evictions == 0  # ... while the stale entry lingers
        assert shared.sweep() == 1  # until a sweep finds it

    def test_sweep_removes_and_counts_expired_entries(self, steering_estate):
        shared = RecursiveResolver(steering_estate, cache=True, cache_scope=16)
        shared.resolve("appldnld.apple.com", context("100.64.0.7", "de", now=0.0))
        removed = shared.sweep(30.0)
        assert removed == 1  # the TTL-20 GSLB answer
        stats = shared.cache_stats()
        assert stats.evictions == 1
        assert stats.size == 1  # the 21600 s entry hop survives
        assert shared.sweep(30.0) == 0  # idempotent

    def test_sweep_defaults_to_latest_seen_time(self, steering_estate):
        shared = RecursiveResolver(steering_estate, cache=True, cache_scope=16)
        shared.resolve("appldnld.apple.com", context("100.64.0.7", "de", now=0.0))
        shared.resolve("appldnld.apple.com", context("100.72.0.9", "au", now=30.0))
        assert shared.sweep() == 1  # horizon is 30.0: de's GSLB entry expired


class TestCapacity:
    def test_overflow_evicts_soonest_to_expire(self, steering_estate):
        shared = RecursiveResolver(
            steering_estate, cache=True, cache_scope=16, cache_capacity=3
        )
        shared.resolve("appldnld.apple.com", context("100.64.0.7", "de", now=0.0))
        shared.resolve("appldnld.apple.com", context("100.72.0.9", "au", now=1.0))
        # Four entries were stored into capacity 3: the one closest to
        # expiry (de's TTL-20 GSLB answer, expiring first) was evicted.
        stats = shared.cache_stats()
        assert stats.size == 3
        assert stats.evictions == 1
        again = shared.resolve(
            "appldnld.apple.com", context("100.64.0.7", "de", now=2.0)
        )
        assert [step.from_cache for step in again.steps] == [True, False]

    def test_validation(self, steering_estate):
        with pytest.raises(ValueError):
            RecursiveResolver(steering_estate, cache_scope=33)
        with pytest.raises(ValueError):
            RecursiveResolver(steering_estate, cache_scope=-1)
        with pytest.raises(ValueError):
            RecursiveResolver(steering_estate, cache_capacity=0)
