"""Tests for repro.net.ipv4."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.ipv4 import AddressError, IPv4Address, IPv4Prefix


class TestIPv4Address:
    def test_parse_round_trip(self):
        assert str(IPv4Address.parse("17.253.0.1")) == "17.253.0.1"

    def test_parse_zero_and_max(self):
        assert IPv4Address.parse("0.0.0.0").value == 0
        assert IPv4Address.parse("255.255.255.255").value == 0xFFFFFFFF

    def test_parse_strips_whitespace(self):
        assert IPv4Address.parse(" 1.2.3.4 ") == IPv4Address.parse("1.2.3.4")

    @pytest.mark.parametrize(
        "bad", ["", "1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", "1..2.3", "-1.2.3.4"]
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(AddressError):
            IPv4Address.parse(bad)

    def test_value_range_enforced(self):
        with pytest.raises(AddressError):
            IPv4Address(-1)
        with pytest.raises(AddressError):
            IPv4Address(1 << 32)

    def test_octets(self):
        assert IPv4Address.parse("17.253.2.9").octets == (17, 253, 2, 9)

    def test_ordering_follows_numeric_value(self):
        low = IPv4Address.parse("9.0.0.0")
        high = IPv4Address.parse("10.0.0.0")
        assert low < high

    def test_shifted(self):
        base = IPv4Address.parse("17.253.0.255")
        assert str(base.shifted(1)) == "17.253.1.0"
        assert base.shifted(1).shifted(-1) == base

    def test_shifted_out_of_range_raises(self):
        with pytest.raises(AddressError):
            IPv4Address.parse("255.255.255.255").shifted(1)

    def test_int_conversion(self):
        assert int(IPv4Address.parse("0.0.0.1")) == 1

    def test_hashable_and_usable_in_sets(self):
        a = IPv4Address.parse("1.1.1.1")
        b = IPv4Address.parse("1.1.1.1")
        assert len({a, b}) == 1

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_str_parse_round_trip_property(self, value):
        address = IPv4Address(value)
        assert IPv4Address.parse(str(address)) == address


class TestIPv4Prefix:
    def test_parse(self):
        prefix = IPv4Prefix.parse("17.253.0.0/16")
        assert prefix.length == 16
        assert str(prefix) == "17.253.0.0/16"

    def test_parse_rejects_host_bits(self):
        with pytest.raises(AddressError):
            IPv4Prefix.parse("17.253.0.1/16")

    def test_parse_rejects_missing_length(self):
        with pytest.raises(AddressError):
            IPv4Prefix.parse("17.253.0.0")

    def test_parse_rejects_bad_length(self):
        with pytest.raises(AddressError):
            IPv4Prefix.parse("10.0.0.0/33")
        with pytest.raises(AddressError):
            IPv4Prefix.parse("10.0.0.0/x")

    def test_containing_rounds_down(self):
        address = IPv4Address.parse("17.253.4.77")
        prefix = IPv4Prefix.containing(address, 16)
        assert str(prefix) == "17.253.0.0/16"
        assert prefix.contains(address)

    def test_contains_boundaries(self):
        prefix = IPv4Prefix.parse("10.0.0.0/24")
        assert prefix.contains(IPv4Address.parse("10.0.0.0"))
        assert prefix.contains(IPv4Address.parse("10.0.0.255"))
        assert not prefix.contains(IPv4Address.parse("10.0.1.0"))
        assert not prefix.contains(IPv4Address.parse("9.255.255.255"))

    def test_in_operator(self):
        prefix = IPv4Prefix.parse("10.0.0.0/8")
        assert IPv4Address.parse("10.9.9.9") in prefix
        assert "10.9.9.9" not in prefix  # only address objects

    def test_size(self):
        assert IPv4Prefix.parse("0.0.0.0/0").size == 1 << 32
        assert IPv4Prefix.parse("10.0.0.0/24").size == 256
        assert IPv4Prefix.parse("10.0.0.4/32").size == 1

    def test_first_last(self):
        prefix = IPv4Prefix.parse("10.1.0.0/16")
        assert str(prefix.first) == "10.1.0.0"
        assert str(prefix.last) == "10.1.255.255"

    def test_host_indexing(self):
        prefix = IPv4Prefix.parse("17.253.0.0/24")
        assert str(prefix.host(0)) == "17.253.0.0"
        assert str(prefix.host(255)) == "17.253.0.255"
        with pytest.raises(AddressError):
            prefix.host(256)
        with pytest.raises(AddressError):
            prefix.host(-1)

    def test_subnets(self):
        prefix = IPv4Prefix.parse("10.0.0.0/23")
        subnets = list(prefix.subnets(24))
        assert [str(s) for s in subnets] == ["10.0.0.0/24", "10.0.1.0/24"]

    def test_subnets_same_length_is_identity(self):
        prefix = IPv4Prefix.parse("10.0.0.0/24")
        assert list(prefix.subnets(24)) == [prefix]

    def test_subnets_rejects_shorter(self):
        with pytest.raises(AddressError):
            list(IPv4Prefix.parse("10.0.0.0/24").subnets(23))

    def test_addresses_iteration(self):
        prefix = IPv4Prefix.parse("10.0.0.0/30")
        addresses = list(prefix.addresses())
        assert len(addresses) == 4
        assert addresses[0] == prefix.first
        assert addresses[-1] == prefix.last

    def test_default_route_contains_everything(self):
        default = IPv4Prefix.parse("0.0.0.0/0")
        assert default.contains(IPv4Address.parse("203.0.113.7"))
        assert default.mask == 0

    @given(
        st.integers(min_value=0, max_value=0xFFFFFFFF),
        st.integers(min_value=0, max_value=32),
    )
    def test_containing_always_contains_property(self, value, length):
        address = IPv4Address(value)
        prefix = IPv4Prefix.containing(address, length)
        assert prefix.contains(address)
        assert prefix.length == length

    @given(
        st.integers(min_value=0, max_value=0xFFFFFFFF),
        st.integers(min_value=1, max_value=32),
    )
    def test_parse_round_trip_property(self, value, length):
        prefix = IPv4Prefix.containing(IPv4Address(value), length)
        assert IPv4Prefix.parse(str(prefix)) == prefix
