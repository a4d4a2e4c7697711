"""Tests for repro.dns.records."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dns.records import (
    ARecord,
    CnameRecord,
    NameError_,
    RecordType,
    ResourceRecord,
    is_subdomain,
    normalize_name,
)
from repro.net.ipv4 import IPv4Address

label_strategy = st.from_regex(r"[a-z0-9]([a-z0-9-]{0,10}[a-z0-9])?", fullmatch=True)
name_strategy = st.lists(label_strategy, min_size=1, max_size=5).map(".".join)


class TestNormalizeName:
    def test_lowercases_and_strips_dot(self):
        assert normalize_name("AppLDNLD.Apple.COM.") == "appldnld.apple.com"

    def test_strips_whitespace(self):
        assert normalize_name("  a.example  ") == "a.example"

    def test_rejects_empty(self):
        with pytest.raises(NameError_):
            normalize_name("")
        with pytest.raises(NameError_):
            normalize_name(".")

    def test_rejects_bad_labels(self):
        with pytest.raises(NameError_):
            normalize_name("foo..bar")
        with pytest.raises(NameError_):
            normalize_name("-leading.example")
        with pytest.raises(NameError_):
            normalize_name("trailing-.example")

    def test_rejects_over_long_names(self):
        with pytest.raises(NameError_):
            normalize_name(".".join(["a" * 60] * 5))

    def test_allows_underscore_labels(self):
        # Seen in service-discovery names; harmless to accept.
        assert normalize_name("_tcp.example") == "_tcp.example"

    @given(name_strategy)
    def test_idempotent_property(self, name):
        once = normalize_name(name)
        assert normalize_name(once) == once


class TestIsSubdomain:
    def test_equal_names(self):
        assert is_subdomain("apple.com", "apple.com")

    def test_child(self):
        assert is_subdomain("appldnld.apple.com", "apple.com")

    def test_not_suffix_trick(self):
        # "notapple.com" must not count as inside "apple.com".
        assert not is_subdomain("notapple.com", "apple.com")

    def test_parent_is_not_subdomain(self):
        assert not is_subdomain("com", "apple.com")


class TestResourceRecord:
    def test_a_record(self):
        record = ARecord("a.example", IPv4Address.parse("1.2.3.4"), ttl=300)
        assert record.rtype is RecordType.A
        assert str(record.address) == "1.2.3.4"
        assert record.ttl == 300

    def test_cname_record_normalises_target(self):
        record = CnameRecord("a.example", "Target.Example.", ttl=15)
        assert record.target == "target.example"

    def test_a_record_rejects_string_data(self):
        with pytest.raises(TypeError):
            ResourceRecord("a.example", RecordType.A, 60, "1.2.3.4")

    def test_cname_rejects_address_data(self):
        with pytest.raises(TypeError):
            ResourceRecord(
                "a.example", RecordType.CNAME, 60, IPv4Address.parse("1.2.3.4")
            )

    def test_negative_ttl_rejected(self):
        with pytest.raises(ValueError):
            CnameRecord("a.example", "b.example", ttl=-1)

    def test_address_accessor_raises_on_cname(self):
        record = CnameRecord("a.example", "b.example", ttl=60)
        with pytest.raises(TypeError):
            _ = record.address

    def test_target_accessor_raises_on_a(self):
        record = ARecord("a.example", IPv4Address.parse("1.2.3.4"), ttl=60)
        with pytest.raises(TypeError):
            _ = record.target

    def test_str_is_zone_file_like(self):
        record = CnameRecord("appldnld.apple.com", "appldnld.apple.com.akadns.net", 21600)
        assert str(record) == (
            "appldnld.apple.com 21600 IN CNAME appldnld.apple.com.akadns.net"
        )

    def test_records_are_hashable(self):
        a = ARecord("a.example", IPv4Address.parse("1.2.3.4"), ttl=60)
        b = ARecord("a.example", IPv4Address.parse("1.2.3.4"), ttl=60)
        assert len({a, b}) == 1


class TestInterning:
    """``ARecord``/``CnameRecord`` share one object per distinct value."""

    ADDRESS = IPv4Address.parse("17.253.0.1")

    def test_equal_arguments_return_the_same_object(self):
        assert ARecord("a.example", self.ADDRESS, 15) is ARecord("a.example", self.ADDRESS, 15)
        assert ARecord("a.example", self.ADDRESS, 15) is ARecord(
            "a.example", IPv4Address.parse("17.253.0.1"), ttl=15
        )
        assert CnameRecord("a.example", "b.example", 15) is CnameRecord(
            "a.example", "b.example", 15
        )

    def test_distinct_values_stay_distinct(self):
        base = ARecord("a.example", self.ADDRESS, 15)
        assert ARecord("a.example", self.ADDRESS, 16) is not base
        assert ARecord("b.example", self.ADDRESS, 15) is not base
        assert ARecord("a.example", IPv4Address.parse("17.253.0.2"), 15) is not base
        # Same (name, data-as-text, ttl), different type: never aliased.
        assert CnameRecord("a.example", "b.example", 15).rtype is RecordType.CNAME

    def test_int_and_float_ttl_do_not_alias(self):
        as_int = ARecord("ttl.example", self.ADDRESS, 15)
        as_float = ARecord("ttl.example", self.ADDRESS, 15.0)
        assert type(as_int.ttl) is int and type(as_float.ttl) is float
        # Asked again, in either order, each gets its own type back.
        assert type(ARecord("ttl.example", self.ADDRESS, 15.0).ttl) is float
        assert type(ARecord("ttl.example", self.ADDRESS, 15).ttl) is int

    def test_validation_errors_are_never_cached(self):
        for _ in range(3):
            with pytest.raises(NameError_):
                ARecord("bad..name", self.ADDRESS, 15)
            with pytest.raises(ValueError):
                ARecord("a.example", self.ADDRESS, -1)
            with pytest.raises(TypeError):
                ARecord("a.example", "17.253.0.1", 15)
            with pytest.raises(NameError_):
                CnameRecord("a.example", "bad..target", 15)

    def test_unnormalised_names_intern_to_equal_records(self):
        assert ARecord("A.Example.", self.ADDRESS, 15) == ARecord("a.example", self.ADDRESS, 15)


class TestInterningPastItsBound:
    """The intern tables empty themselves when full and refill."""

    ADDRESS = IPv4Address.parse("17.253.0.1")

    def test_equal_arguments_still_give_equal_records_of_their_ttl_type(self):
        before = ARecord("bound.example", self.ADDRESS, 15)
        cname_before = CnameRecord("bound.example", "t.example", 15.0)
        for index in range(8193 + 7):
            address = IPv4Address(self.ADDRESS.value + index)
            ARecord(f"n{index}.example", address, 15)
            CnameRecord(f"n{index}.example", "t.example", 15)
        for ttl in (15.0, 15, 15.0):
            record = ARecord("bound.example", self.ADDRESS, ttl)
            assert record == before and type(record.ttl) is type(ttl)
            assert ARecord("bound.example", self.ADDRESS, ttl) is record
            cname = CnameRecord("bound.example", "t.example", ttl)
            assert cname == cname_before and type(cname.ttl) is type(ttl)
            assert cname.rtype is RecordType.CNAME
        with pytest.raises(ValueError):
            ARecord("bound.example", self.ADDRESS, -1)
