"""Tests for repro.net.asys."""

import pytest

from repro.net.asys import (
    AS_AKAMAI,
    AS_APPLE,
    AS_LIMELIGHT,
    ASN,
    ASRegistry,
    AutonomousSystem,
)
from repro.net.ipv4 import IPv4Address, IPv4Prefix


class TestASN:
    def test_well_known_numbers_match_reality(self):
        assert int(AS_APPLE) == 714
        assert int(AS_AKAMAI) == 20940
        assert int(AS_LIMELIGHT) == 22822

    def test_str(self):
        assert str(ASN(714)) == "AS714"

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ValueError):
            ASN(0)
        with pytest.raises(ValueError):
            ASN(-5)

    def test_rejects_beyond_32_bit(self):
        with pytest.raises(ValueError):
            ASN(1 << 32)

    def test_orderable_and_hashable(self):
        assert ASN(1) < ASN(2)
        assert len({ASN(7), ASN(7)}) == 1


class TestAutonomousSystem:
    def test_announce_deduplicates(self):
        asys = AutonomousSystem(ASN(714), "Apple")
        prefix = IPv4Prefix.parse("17.0.0.0/8")
        asys.announce(prefix)
        asys.announce(prefix)
        assert asys.prefixes == [prefix]

    def test_str_includes_organisation(self):
        assert "Apple" in str(AutonomousSystem(AS_APPLE, "Apple"))


class TestASRegistry:
    @pytest.fixture
    def registry(self):
        registry = ASRegistry()
        registry.create(AS_APPLE, "Apple", [IPv4Prefix.parse("17.0.0.0/8")])
        registry.create(AS_AKAMAI, "Akamai", [IPv4Prefix.parse("23.192.0.0/11")])
        return registry

    def test_asn_for_longest_match(self, registry):
        assert registry.asn_for(IPv4Address.parse("17.253.1.1")) == AS_APPLE
        assert registry.asn_for(IPv4Address.parse("23.201.0.1")) == AS_AKAMAI

    def test_asn_for_miss(self, registry):
        assert registry.asn_for(IPv4Address.parse("8.8.8.8")) is None

    def test_more_specific_announcement_wins(self, registry):
        registry.create(ASN(64500), "Hoster", [IPv4Prefix.parse("17.99.0.0/16")])
        assert registry.asn_for(IPv4Address.parse("17.99.1.1")) == ASN(64500)
        assert registry.asn_for(IPv4Address.parse("17.98.1.1")) == AS_APPLE

    def test_announce_after_create(self, registry):
        registry.announce(AS_APPLE, IPv4Prefix.parse("144.178.0.0/16"))
        assert registry.asn_for(IPv4Address.parse("144.178.1.1")) == AS_APPLE
        assert IPv4Prefix.parse("144.178.0.0/16") in registry.get(AS_APPLE).prefixes

    def test_announce_unknown_asn_raises(self, registry):
        with pytest.raises(KeyError):
            registry.announce(ASN(65000), IPv4Prefix.parse("10.0.0.0/8"))

    def test_register_same_asn_merges(self, registry):
        duplicate = AutonomousSystem(
            AS_APPLE, "Apple Again", [IPv4Prefix.parse("192.35.50.0/24")]
        )
        returned = registry.register(duplicate)
        # Original organisation preserved; new prefixes indexed anyway.
        assert returned.organisation == "Apple"
        assert registry.asn_for(IPv4Address.parse("192.35.50.7")) == AS_APPLE

    def test_container_protocol(self, registry):
        assert AS_APPLE in registry
        assert ASN(65001) not in registry
        assert len(registry) == 2
        assert {a.asn for a in registry} == {AS_APPLE, AS_AKAMAI}
