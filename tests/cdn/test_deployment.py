"""Tests for repro.cdn.deployment — exposure control and answer pools."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdn.cache import ContentCache
from repro.cdn.deployment import CdnDeployment, ExposureController
from repro.cdn.server import CacheServer, ServerFunction, ServerRole
from repro.dns.query import QueryContext
from repro.net.asys import AS_AKAMAI, ASN
from repro.net.geo import Continent, Coordinates, MappingRegion
from repro.net.ipv4 import IPv4Address
from repro.net.locode import LocodeDatabase

DB = LocodeDatabase.builtin()
EDGE = ServerRole(ServerFunction.EDGE)


def make_server(index, capacity=10.0):
    return CacheServer(
        hostname=f"cache-{index:03d}.example.net",
        address=IPv4Address.parse(f"23.192.{index // 256}.{index % 256}"),
        role=EDGE,
        asn=AS_AKAMAI,
        capacity_gbps=capacity,
        cache=ContentCache(10**9),
    )


def eu_context(now=0.0, client="198.51.100.9"):
    return QueryContext(
        client=IPv4Address.parse(client),
        coordinates=Coordinates(52.52, 13.40),
        continent=Continent.EUROPE,
        country="de",
        now=now,
    )


class TestExposureController:
    def test_starts_at_min(self):
        controller = ExposureController(per_server_gbps=10, min_servers=4)
        assert controller.active_count(100) == 4

    def test_min_capped_by_pool(self):
        controller = ExposureController(per_server_gbps=10, min_servers=8)
        assert controller.active_count(3) == 3

    def test_demand_grows_active_count(self):
        controller = ExposureController(
            per_server_gbps=10, min_servers=2, headroom=1.0, tau_seconds=60
        )
        for step in range(200):  # long enough to converge
            controller.offer(step * 60.0, 500.0)
        assert controller.active_count(100) == 50

    def test_ramp_is_gradual(self):
        controller = ExposureController(
            per_server_gbps=10, min_servers=2, headroom=1.0, tau_seconds=21600
        )
        controller.offer(0.0, 0.0)
        controller.offer(300.0, 1000.0)  # demand jumps
        early = controller.active_count(200)
        for step in range(2, 200):
            controller.offer(step * 300.0, 1000.0)
        late = controller.active_count(200)
        assert early < late  # the six-hour Akamai ramp, in miniature

    def test_demand_decay(self):
        controller = ExposureController(
            per_server_gbps=10, min_servers=2, headroom=1.0, tau_seconds=60
        )
        for step in range(100):
            controller.offer(step * 60.0, 800.0)
        peak = controller.active_count(100)
        for step in range(100, 300):
            controller.offer(step * 60.0, 0.0)
        assert controller.active_count(100) < peak

    def test_reset(self):
        controller = ExposureController(per_server_gbps=10, min_servers=1)
        controller.offer(0, 100)
        controller.offer(10000, 100)
        assert controller.active_count(100) > 1
        controller.reset()
        assert controller.active_count(100) == 1  # back to min_servers

    def test_validation(self):
        with pytest.raises(ValueError):
            ExposureController(per_server_gbps=0)
        with pytest.raises(ValueError):
            ExposureController(per_server_gbps=10, headroom=0.5)
        with pytest.raises(ValueError):
            ExposureController(per_server_gbps=10, tau_seconds=0)
        controller = ExposureController(per_server_gbps=10)
        with pytest.raises(ValueError):
            controller.offer(0, -5)


class TestCdnDeployment:
    def _deployment(self, exposure=None, pool_limit=0):
        deployment = CdnDeployment(
            "Akamai", AS_AKAMAI, exposure_factory=exposure, pool_limit=pool_limit
        )
        fra = DB.get("defra")
        lon = DB.get("uklon")
        nyc = DB.get("usnyc")
        for index in range(8):
            deployment.add_server(make_server(index), fra)
        for index in range(8, 12):
            deployment.add_server(make_server(index), lon)
        for index in range(12, 20):
            deployment.add_server(make_server(index), nyc)
        return deployment

    def test_region_grouping(self):
        deployment = self._deployment()
        assert len(deployment.servers_in_region(MappingRegion.EU)) == 12
        assert len(deployment.servers_in_region(MappingRegion.US)) == 8
        assert len(deployment.servers_in_region(MappingRegion.APAC)) == 0

    def test_no_exposure_means_all_active(self):
        deployment = self._deployment()
        assert len(deployment.active_servers(MappingRegion.EU)) == 12

    def test_exposure_limits_active(self):
        deployment = self._deployment(
            exposure=lambda: ExposureController(per_server_gbps=10, min_servers=2)
        )
        assert len(deployment.active_servers(MappingRegion.EU)) == 2

    def test_exposure_reacts_to_regional_demand_only(self):
        deployment = self._deployment(
            exposure=lambda: ExposureController(
                per_server_gbps=10, min_servers=2, headroom=1.0, tau_seconds=60
            )
        )
        for step in range(100):
            deployment.offer_demand(step * 60.0, MappingRegion.EU, 60.0)
        assert len(deployment.active_servers(MappingRegion.EU)) == 6
        assert len(deployment.active_servers(MappingRegion.US)) == 2

    def test_pool_for_nearest_first(self):
        deployment = self._deployment()
        pool = deployment.pool_for(eu_context())
        # Frankfurt caches (indexes 0..7) are nearer Berlin than London's.
        frankfurt_addresses = {
            str(p.server.address)
            for p in deployment.servers_in_region(MappingRegion.EU)
            if p.location.code == "defra"
        }
        assert {str(IPv4Address(a)) for a in pool[:8]} == frankfurt_addresses

    def test_pool_limit(self):
        deployment = self._deployment(pool_limit=3)
        assert len(deployment.pool_for(eu_context())) == 3

    @pytest.mark.parametrize("pool_limit", [0, 1, 3, 12, 40])
    def test_filtered_ranking_equals_sorting_the_active_set(self, pool_limit):
        """Every active count 0..N: the memoised pool is the from-scratch sort."""
        from repro.net.geo import great_circle_km

        wanted = {"count": 0}

        class Pinned(ExposureController):
            def active_count(self, pool_size):
                return min(wanted["count"], pool_size)

        deployment = self._deployment(
            exposure=lambda: Pinned(per_server_gbps=10), pool_limit=pool_limit
        )
        # Exposure order is hostname order (Frankfurt, London, Helsinki);
        # from London or Berlin the distance order is a different one,
        # so an exposure prefix is not a prefix of the ranking.
        hel = DB.get("fihel")
        for index in range(20, 26):
            deployment.add_server(make_server(index), hel)
        vantages = [eu_context(), eu_context(client="198.51.100.77")]
        vantages.append(
            QueryContext(
                client=IPv4Address.parse("198.51.100.10"),
                coordinates=Coordinates(51.51, -0.13),
                continent=Continent.EUROPE,
                country="gb",
            )
        )
        placements = deployment.servers_in_region(MappingRegion.EU)
        # Up and down again, so each count is asked cold and from the memo.
        for count in list(range(len(placements) + 1)) + list(range(len(placements), -1, -1)):
            wanted["count"] = count
            active = deployment.active_servers(MappingRegion.EU)
            assert active == placements[:count]
            for context in vantages:
                expected = [
                    placed.server.address.value
                    for placed in sorted(
                        active,
                        key=lambda placed: (
                            great_circle_km(
                                context.coordinates, placed.location.coordinates
                            ),
                            placed.server.hostname,
                        ),
                    )
                ]
                if pool_limit > 0:
                    expected = expected[:pool_limit]
                pool = deployment.pool_for(context)
                assert pool.typecode == "I"
                assert list(pool) == expected

    def test_a_count_up_and_back_down_answers_as_a_fresh_deployment(self):
        """The memo keeps one pool per vantage, for the count it last
        served: revisiting a count recomputes it, with a fresh
        deployment's values, and never grows the memo."""

        def pinned(wanted):
            class Pinned(ExposureController):
                def active_count(self, pool_size):
                    return min(wanted["count"], pool_size)

            return self._deployment(exposure=lambda: Pinned(per_server_gbps=10))

        wanted = {"count": 3}
        deployment = pinned(wanted)
        vantages = [eu_context(), eu_context(client="198.51.100.77")]
        first = [list(deployment.pool_for(context)) for context in vantages]
        for count in (4, 9, 12, 5, 3):
            wanted["count"] = count
            pools = [list(deployment.pool_for(context)) for context in vantages]
            fresh = pinned({"count": count})
            assert pools == [list(fresh.pool_for(context)) for context in vantages]
            # Both clients sit at Berlin: one vantage, one pool.
            assert len(deployment._vantages) == 1
        assert pools == first

    def test_adding_a_server_invalidates_the_pools(self):
        deployment = self._deployment()
        before = deployment.pool_for(eu_context())
        berlin_adjacent = make_server(30)
        deployment.add_server(berlin_adjacent, DB.get("deber"))
        after = deployment.pool_for(eu_context())
        assert len(after) == len(before) + 1
        assert after[0] == berlin_adjacent.address.value
        assert len(deployment.active_servers(MappingRegion.EU)) == 13

    def test_one_coordinates_object_in_two_regions_gets_two_pools(self):
        deployment = self._deployment()
        here = eu_context()
        there = QueryContext(
            client=IPv4Address.parse("203.0.113.5"),
            coordinates=here.coordinates,  # the same object
            continent=Continent.NORTH_AMERICA,
            country="us",
        )
        for _ in range(2):
            eu, us = list(deployment.pool_for(here)), list(deployment.pool_for(there))
            assert len(eu) == 12 and len(us) == 8
            assert not set(eu) & set(us)

    def test_coordinates_built_per_query_do_not_grow_the_memo(self):
        deployment = self._deployment()
        pools = {tuple(deployment.pool_for(eu_context())) for _ in range(50)}
        assert len(pools) == 1
        assert len(deployment._vantages) == 1
        assert len(deployment._by_id) <= len(deployment._vantages)

    def test_pool_only_contains_region_servers(self):
        deployment = self._deployment()
        pool = {str(IPv4Address(a)) for a in deployment.pool_for(eu_context())}
        us_addresses = {
            str(p.server.address)
            for p in deployment.servers_in_region(MappingRegion.US)
        }
        assert not pool & us_addresses

    def test_server_at(self):
        deployment = self._deployment()
        address = deployment.servers[0].server.address
        assert deployment.server_at(address) is deployment.servers[0].server
        assert deployment.server_at(IPv4Address.parse("9.9.9.9")) is None

    def test_capacity_accounting(self):
        deployment = self._deployment()
        assert deployment.region_capacity_gbps(MappingRegion.EU) == 120.0

    def test_len_and_str(self):
        deployment = self._deployment()
        assert len(deployment) == 20
        assert "Akamai" in str(deployment)


class TestPoolsUpdatedInPlace:
    """A vantage's pool is updated in place as its region's active count
    moves; after every call it must be the pool sorted from scratch, and
    a GSLB over it must answer as one over the sorted pool."""

    @staticmethod
    def _world(pool_limit):
        wanted = {"count": 0}

        class Pinned(ExposureController):
            def active_count(self, pool_size):
                return min(wanted["count"], pool_size)

        deployment = CdnDeployment(
            "Akamai", AS_AKAMAI, exposure_factory=lambda: Pinned(per_server_gbps=10),
            pool_limit=pool_limit,
        )
        # Hostname (exposure) order runs across the metros, so from each
        # vantage an exposure prefix is not a prefix of the ranking.
        metros = ("fihel", "uklon", "defra", "esmad", "usnyc", "deber", "itmil")
        for index in range(40):
            deployment.add_server(make_server(index), DB.get(metros[index * 5 % 7]))
        return deployment, wanted

    @staticmethod
    def _sorted_pool(deployment, context):
        """The pool of ``context`` sorted from scratch out of the active set."""
        from repro.net.geo import great_circle_km

        ranked = sorted(
            deployment.active_servers(context.region),
            key=lambda placed: (
                great_circle_km(context.coordinates, placed.location.coordinates),
                placed.server.hostname,
            ),
        )
        if deployment.pool_limit > 0:
            ranked = ranked[: deployment.pool_limit]
        return [placed.server.address.value for placed in ranked]

    @settings(max_examples=60, deadline=None)
    @given(
        pool_limit=st.sampled_from([0, 1, 3, 8, 45]),
        moves=st.lists(
            st.one_of(
                st.integers(-6, 6).map(lambda d: ("by", d)),  # up, down, unchanged
                st.sampled_from([("to", 0), ("to", 1), ("to", 99)]),  # min, region size
            ),
            min_size=1, max_size=25,
        ),
    )
    def test_every_count_answers_as_the_sorted_pool(self, pool_limit, moves):
        from repro.dns.policies import GslbAddressPolicy

        deployment, wanted = self._world(pool_limit)
        vantages = [
            eu_context(),
            eu_context(client="198.51.100.77"),
            QueryContext(
                client=IPv4Address.parse("198.51.100.10"),
                coordinates=Coordinates(51.51, -0.13),
                continent=Continent.EUROPE,
                country="gb",
            ),
            QueryContext(
                client=IPv4Address.parse("203.0.113.5"),
                coordinates=Coordinates(40.71, -74.0),
                continent=Continent.NORTH_AMERICA,
                country="us",
            ),
        ]
        live = GslbAddressPolicy(pool=deployment.pool_for, ttl=60, answer_count=4)
        scratch = GslbAddressPolicy(
            pool=lambda context: self._sorted_pool(deployment, context),
            ttl=60, answer_count=4,
        )
        for step, (how, amount) in enumerate(moves):
            wanted["count"] = max(0, wanted["count"] + amount if how == "by" else amount)
            answer, expected = live.bind("a.example", step), scratch.bind("a.example", step)
            for context in vantages:
                pool = deployment.pool_for(context)
                assert pool.typecode == "I"
                assert list(pool) == self._sorted_pool(deployment, context)
                assert answer(context) == expected(context)


class TestThirdPartyBuilders:
    def test_akamai_fleet(self):
        from repro.cdn.thirdparty import AKAMAI_PLAN, build_third_party

        metros = [DB.get("defra"), DB.get("uklon")]
        fleet = build_third_party(AKAMAI_PLAN, metros, other_as=ASN(64512))
        assert len(fleet) == 2 * AKAMAI_PLAN.servers_per_metro
        other_as = [p for p in fleet.servers if p.server.asn == ASN(64512)]
        own_as = [p for p in fleet.servers if p.server.asn == AKAMAI_PLAN.asn]
        assert len(other_as) + len(own_as) == len(fleet)
        share = len(other_as) / len(fleet)
        assert abs(share - AKAMAI_PLAN.other_as_share) < 0.1

    def test_limelight_addresses_in_own_prefix(self):
        from repro.cdn.thirdparty import LIMELIGHT_PLAN, build_third_party

        fleet = build_third_party(
            LIMELIGHT_PLAN, [DB.get("defra")], other_as=ASN(64513)
        )
        for placed in fleet.servers:
            if placed.server.asn == LIMELIGHT_PLAN.asn:
                assert LIMELIGHT_PLAN.own_prefix.contains(placed.server.address)
            else:
                assert LIMELIGHT_PLAN.other_as_prefix.contains(placed.server.address)

    def test_unique_addresses_across_fleet(self):
        from repro.cdn.thirdparty import LIMELIGHT_PLAN, build_third_party

        metros = [DB.get("defra"), DB.get("uklon"), DB.get("usnyc")]
        fleet = build_third_party(LIMELIGHT_PLAN, metros, other_as=ASN(64513))
        addresses = [p.server.address for p in fleet.servers]
        assert len(addresses) == len(set(addresses))
