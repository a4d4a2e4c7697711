"""Tests for repro.analysis.enumeration — Aquatone-style flyovers."""

import pytest

from repro.analysis import discover_sites, enumerate_names, generate_candidates
from repro.apple.deployment import AppleCdn
from repro.apple.naming import AAPLIMG_DOMAIN, parse_hostname
from repro.dns.policies import StaticPolicy
from repro.dns.query import QueryContext
from repro.dns.records import ARecord
from repro.dns.zone import AuthoritativeServer, Zone
from repro.net.geo import Continent, Coordinates
from repro.net.ipv4 import IPv4Address


def context():
    return QueryContext(
        client=IPv4Address.parse("198.51.100.1"),
        coordinates=Coordinates(0, 0),
        continent=Continent.EUROPE,
        country="de",
    )


@pytest.fixture(scope="module")
def apple():
    return AppleCdn.build()


@pytest.fixture(scope="module")
def forward_server(apple):
    """An authoritative ``aaplimg.com`` server with per-host A records:
    every server name of the estate resolves to its address."""
    zone = Zone(AAPLIMG_DOMAIN)
    for address, hostname in apple.reverse_dns_table().items():
        zone.bind(hostname, StaticPolicy((ARecord(hostname, address, 3600),)))
    return AuthoritativeServer("Apple", [zone])


class TestGenerateCandidates:
    def test_grammar_compliant(self):
        for hostname in generate_candidates(["usnyc"], max_site_id=1):
            parse_hostname(hostname)  # must not raise

    def test_candidate_count(self):
        candidates = list(generate_candidates(["usnyc", "defra"], max_site_id=2))
        # 2 locodes x 2 site ids x sum of per-role id ranges.
        per_site = 16 + 64 + 4 + 4 + 4 + 4 + 4
        assert len(candidates) == 2 * 2 * per_site
        assert len(set(candidates)) == len(candidates)


class TestEnumerateNames:
    def test_finds_real_servers_only(self, apple, forward_server):
        result = enumerate_names(
            forward_server, context(), ["usnyc"], max_site_id=2
        )
        assert result.hits
        truth = set(apple.reverse_dns_table().values())
        for hostname, address in result.hits.items():
            assert hostname in truth
            assert apple.reverse_dns_table()[address] == hostname

    def test_unknown_metro_finds_nothing(self, forward_server):
        result = enumerate_names(
            forward_server, context(), ["zzzzz"], max_site_id=2
        )
        assert result.hits == {}
        assert result.hit_ratio == 0.0

    def test_hit_ratio(self, forward_server):
        result = enumerate_names(
            forward_server, context(), ["defra"], max_site_id=1
        )
        assert 0.0 < result.hit_ratio < 1.0

    def test_enumeration_feeds_site_discovery(self, apple, forward_server):
        """The second independent route to Figure 3."""
        from repro.apple.deployment import APPLE_METRO_PLANS

        locodes = {plan.locode for plan in APPLE_METRO_PLANS}
        result = enumerate_names(
            forward_server, context(), sorted(locodes), max_site_id=2
        )
        discovery = discover_sites(result.ptr_table())
        assert discovery.site_count == 34
        # edge-bx ids are enumerated only up to 64 per site; every site
        # has at most 48, so the counts are complete.
        assert discovery.total_edge_bx == 1072
