"""Tests for repro.apple.deployment — the Figure 3 estate."""

import pytest

from repro.apple.deployment import (
    APPLE_DELIVERY_PREFIX,
    APPLE_METRO_PLANS,
    EDGE_BX_PER_VIP,
    AppleCdn,
    MetroPlan,
)
from repro.apple.naming import parse_hostname
from repro.cdn.server import SecondaryFunction, ServerFunction
from repro.dns.query import QueryContext
from repro.http.messages import Headers, HttpRequest
from repro.net.geo import Continent, Coordinates, MappingRegion
from repro.net.ipv4 import IPv4Address
from repro.net.locode import LocodeDatabase


@pytest.fixture(scope="module")
def apple():
    return AppleCdn.build(LocodeDatabase.builtin())


class TestMetroPlans:
    def test_34_sites_total(self):
        assert sum(plan.sites for plan in APPLE_METRO_PLANS) == 34

    def test_30_metros(self):
        assert len(APPLE_METRO_PLANS) == 30

    def test_1072_edge_bx_total(self):
        # Sum of the Figure 3 labels' denominators.
        assert sum(plan.edge_bx_total for plan in APPLE_METRO_PLANS) == 1072

    def test_figure3_label_multiset(self):
        labels = sorted(plan.label for plan in APPLE_METRO_PLANS)
        assert labels.count("2/96") == 1
        assert labels.count("2/80") == 2
        assert labels.count("2/64") == 1
        assert labels.count("1/48") == 1
        assert labels.count("1/40") == 3
        assert labels.count("1/32") == 14
        assert labels.count("1/24") == 2
        assert labels.count("1/16") == 5
        assert labels.count("1/8") == 1

    def test_density_ordering_us_first(self):
        db = LocodeDatabase.builtin()
        by_continent = {}
        for plan in APPLE_METRO_PLANS:
            continent = db.get(plan.locode).continent
            by_continent[continent] = by_continent.get(continent, 0) + plan.sites
        assert by_continent[Continent.NORTH_AMERICA] > by_continent[Continent.EUROPE]
        assert by_continent[Continent.EUROPE] > by_continent.get(Continent.ASIA, 0)
        assert Continent.SOUTH_AMERICA not in by_continent
        assert Continent.AFRICA not in by_continent

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            MetroPlan("usnyc", 2, 33)  # does not split evenly
        with pytest.raises(ValueError):
            MetroPlan("usnyc", 1, 6)  # not a multiple of 4
        with pytest.raises(ValueError):
            MetroPlan("usnyc", 0, 0)

    def test_per_site_counts(self):
        plan = MetroPlan("usnyc", 2, 96)
        assert plan.edge_bx_per_site == 48
        assert plan.label == "2/96"


class TestAppleCdnBuild:
    def test_site_and_server_counts(self, apple):
        assert apple.site_count == 34
        assert apple.edge_bx_count == 1072

    def test_vip_fronts_four_edge_bx(self, apple):
        for site in apple.sites:
            for group in site.groups:
                assert len(group.edge_bx) == EDGE_BX_PER_VIP

    def test_all_delivery_addresses_in_17_253(self, apple):
        for site in apple.sites:
            for address in site.vip_addresses:
                assert APPLE_DELIVERY_PREFIX.contains(address)
            assert APPLE_DELIVERY_PREFIX.contains(site.edge_lx.address)

    def test_addresses_unique(self, apple):
        addresses = list(apple.reverse_dns_table())
        assert len(addresses) == len(set(addresses))

    def test_reverse_dns_follows_naming_scheme(self, apple):
        for address, hostname in apple.reverse_dns_table().items():
            name = parse_hostname(hostname)
            assert hostname.endswith("aaplimg.com")
            assert name.locode in {plan.locode for plan in APPLE_METRO_PLANS}

    def test_vip_hostnames_aaplimg_edge_ts_apple(self, apple):
        site = apple.sites[0]
        for group in site.groups:
            assert group.vip.hostname.endswith(".aaplimg.com")
            for edge in group.edge_bx:
                assert edge.hostname.endswith(".ts.apple.com")

    def test_site_for_vip(self, apple):
        site = apple.sites[0]
        vip = site.vip_addresses[0]
        assert apple.site_for(vip) is site
        assert apple.site_for(IPv4Address.parse("9.9.9.9")) is None

    def test_serve_via_vip(self, apple):
        site = apple.sites[0]
        vip = site.vip_addresses[0]
        request = HttpRequest(
            "GET",
            "appldnld.apple.com",
            "/ios11/test.ipsw",
            headers=Headers({"X-Client": "198.51.100.1"}),
        )
        served = apple.serve(vip, request, size=500)
        assert served.response.ok
        assert site.served_bytes == 500

    def test_serve_unknown_vip_raises(self, apple):
        request = HttpRequest("GET", "appldnld.apple.com", "/x")
        with pytest.raises(KeyError):
            apple.serve(IPv4Address.parse("9.9.9.9"), request, 1)

    def test_pool_for_returns_nearby_vips(self, apple):
        context = QueryContext(
            client=IPv4Address.parse("198.51.100.7"),
            coordinates=Coordinates(50.11, 8.68),  # Frankfurt
            continent=Continent.EUROPE,
            country="de",
        )
        pool = apple.deployment.pool_for(context)
        assert pool  # Europe has sites
        nearest = apple.site_for(IPv4Address(pool[0]))
        assert nearest.location.code == "defra"

    def test_capacity_positive(self, apple):
        assert apple.total_capacity_gbps == pytest.approx(1072 * 10.0)

    def test_edge_lx_shared_within_site(self, apple):
        site = apple.sites[0]
        for group in site.groups:
            assert group.edge_lx is site.edge_lx
