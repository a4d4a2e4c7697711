"""Tests for repro.dns.reverse — PTR zones and the /16 scan."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dns.query import QueryContext
from repro.dns.reverse import (
    address_from_reverse_name,
    build_ptr_zone,
    reverse_name,
    scan_ptr_records,
)
from repro.net.geo import Continent, Coordinates
from repro.net.ipv4 import IPv4Address, IPv4Prefix


def context():
    return QueryContext(
        client=IPv4Address.parse("198.51.100.1"),
        coordinates=Coordinates(0, 0),
        continent=Continent.EUROPE,
        country="de",
    )


class TestReverseName:
    def test_octet_order(self):
        assert reverse_name(IPv4Address.parse("17.253.0.8")) == (
            "8.0.253.17.in-addr.arpa"
        )

    def test_inverse(self):
        assert address_from_reverse_name("8.0.253.17.in-addr.arpa") == (
            IPv4Address.parse("17.253.0.8")
        )

    def test_inverse_rejects_garbage(self):
        with pytest.raises(ValueError):
            address_from_reverse_name("www.apple.com")
        with pytest.raises(ValueError):
            address_from_reverse_name("1.2.3.in-addr.arpa")
        with pytest.raises(ValueError):
            address_from_reverse_name("a.b.c.d.in-addr.arpa")

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_round_trip_property(self, value):
        address = IPv4Address(value)
        assert address_from_reverse_name(reverse_name(address)) == address


class TestPtrZone:
    @pytest.fixture
    def server(self):
        table = {
            IPv4Address.parse("17.253.0.1"): "usnyc1-vip-bx-001.aaplimg.com",
            IPv4Address.parse("17.253.0.2"): "usnyc1-vip-bx-002.aaplimg.com",
        }
        return build_ptr_zone(table)

    def test_ptr_query_resolves(self, server):
        from repro.dns.query import Question, RCode
        from repro.dns.records import RecordType

        response = server.query(
            Question("1.0.253.17.in-addr.arpa", RecordType.PTR), context()
        )
        assert response.rcode is RCode.NOERROR
        assert response.answers[0].target == "usnyc1-vip-bx-001.aaplimg.com"

    def test_unknown_address_nxdomain(self, server):
        from repro.dns.query import Question, RCode
        from repro.dns.records import RecordType

        response = server.query(
            Question("9.9.253.17.in-addr.arpa", RecordType.PTR), context()
        )
        assert response.rcode is RCode.NXDOMAIN

    def test_scan_finds_exactly_the_table(self, server):
        found = scan_ptr_records(
            server,
            IPv4Prefix.parse("17.253.0.0/24"),
            context(),
        )
        assert found == {
            IPv4Address.parse("17.253.0.1"): "usnyc1-vip-bx-001.aaplimg.com",
            IPv4Address.parse("17.253.0.2"): "usnyc1-vip-bx-002.aaplimg.com",
        }

    def test_scan_restricted_addresses(self, server):
        found = scan_ptr_records(
            server,
            IPv4Prefix.parse("17.253.0.0/24"),
            context(),
            addresses=[IPv4Address.parse("17.253.0.2")],
        )
        assert list(found.values()) == ["usnyc1-vip-bx-002.aaplimg.com"]

    def test_scan_skips_out_of_prefix_addresses(self, server):
        found = scan_ptr_records(
            server,
            IPv4Prefix.parse("17.253.0.0/24"),
            context(),
            addresses=[IPv4Address.parse("10.0.0.1")],
        )
        assert found == {}


class TestEndToEndDiscoveryViaDns:
    def test_ptr_scan_feeds_site_discovery(self):
        """The full Section 3.3 pipeline through real PTR queries."""
        from repro.analysis import discover_sites
        from repro.apple.deployment import AppleCdn

        apple = AppleCdn.build()
        server = build_ptr_zone(apple.reverse_dns_table(), operator="Apple")
        # Sweep only the addresses the estate populates (a full /16
        # walk is 65k queries; the set is what a staged scan finds).
        found = scan_ptr_records(
            server,
            IPv4Prefix.parse("17.253.0.0/16"),
            context(),
            addresses=list(apple.reverse_dns_table()),
        )
        discovery = discover_sites(found)
        assert discovery.site_count == 34
        assert discovery.total_edge_bx == 1072
