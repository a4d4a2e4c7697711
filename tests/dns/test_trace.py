"""Tests for repro.dns.trace — delegation walks."""

import pytest

from repro.dns.policies import CnamePolicy
from repro.dns.trace import DelegationTree
from repro.dns.zone import AuthoritativeServer, Zone


@pytest.fixture
def servers():
    apple_zone = Zone("apple.com")
    apple_zone.bind("appldnld.apple.com", CnamePolicy("x.akadns.net", ttl=1))
    applimg_zone = Zone("applimg.com")
    akadns_zone = Zone("akadns.net")
    return [
        AuthoritativeServer("Apple", [apple_zone, applimg_zone]),
        AuthoritativeServer("Akamai", [akadns_zone]),
    ]


class TestDelegationTree:
    def test_zone_inventory(self, servers):
        tree = DelegationTree(servers)
        assert tree.zones == ("akadns.net", "apple.com", "applimg.com")

    def test_hosted_zone_for(self, servers):
        tree = DelegationTree(servers)
        assert tree.hosted_zone_for("appldnld.apple.com") == "apple.com"
        assert tree.hosted_zone_for("a.b.akadns.net") == "akadns.net"
        assert tree.hosted_zone_for("unknown.example") is None

    def test_trace_walks_root_tld_zone(self, servers):
        trace = DelegationTree(servers).trace("appldnld.apple.com")
        levels = [step.level for step in trace.steps]
        assert levels == [".", "com", "apple.com"]
        assert trace.steps[0].operator == "IANA root"
        assert trace.steps[0].referral_to == "com"
        assert trace.steps[-1].referral_to is None
        assert trace.final_operator == "Apple"

    def test_trace_attributes_akamai_estate(self, servers):
        trace = DelegationTree(servers).trace("appldnld.apple.com.akadns.net")
        assert trace.final_operator == "Akamai"
        assert trace.steps[-1].level == "akadns.net"

    def test_unhosted_name(self, servers):
        trace = DelegationTree(servers).trace("www.example.org")
        assert trace.final_operator is None
        assert trace.steps[-1].referral_to is None

    def test_render(self, servers):
        text = DelegationTree(servers).trace("appldnld.apple.com").render()
        assert "delegation trace for appldnld.apple.com" in text
        assert "AUTHORITATIVE" in text
        assert "IANA root" in text


class TestAgainstFullEstate:
    def test_figure2_operator_attribution(self, event_run):
        """The paper's split — Akamai runs akadns/edgesuite/akamai.net,
        Apple runs apple.com/applimg.com, Limelight its llnw zones."""
        scenario, _, _ = event_run
        tree = DelegationTree(scenario.estate.servers)
        names = scenario.estate.names
        assert tree.trace(names.entry_point).final_operator == "Apple"
        assert tree.trace(names.selection).final_operator == "Apple"
        assert tree.trace(names.akadns_entry).final_operator == "Akamai"
        assert tree.trace(names.edgesuite).final_operator == "Akamai"
        assert tree.trace(names.akamai_primary).final_operator == "Akamai"
        assert tree.trace(names.limelight_us_eu).final_operator == "Limelight"
        assert tree.trace(names.limelight_apac).final_operator == "Limelight"
