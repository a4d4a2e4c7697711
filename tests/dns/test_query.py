"""Tests for repro.dns.query response helpers."""

import pytest

from repro.dns.query import DnsResponse, Question, QueryContext, RCode
from repro.dns.records import ARecord, CnameRecord, RecordType
from repro.net.geo import Continent, Coordinates, MappingRegion
from repro.net.ipv4 import IPv4Address


def full_answer():
    question = Question("appldnld.apple.com")
    return DnsResponse(
        question=question,
        answers=(
            CnameRecord("appldnld.apple.com", "appldnld.apple.com.akadns.net", 21600),
            CnameRecord("appldnld.apple.com.akadns.net", "a.gslb.applimg.com", 120),
            ARecord("a.gslb.applimg.com", IPv4Address.parse("17.253.0.1"), 15),
            ARecord("a.gslb.applimg.com", IPv4Address.parse("17.253.0.2"), 15),
        ),
    )


class TestQuestion:
    def test_normalises(self):
        assert Question("AppLDNLD.Apple.COM.").name == "appldnld.apple.com"

    def test_default_type_is_a(self):
        assert Question("x.example").rtype is RecordType.A

    def test_str(self):
        assert str(Question("x.example")) == "x.example A"


    def test_of_shares_one_object_per_value(self):
        assert Question.of("x.example") is Question.of("x.example", RecordType.A)
        assert Question.of("x.example") == Question("X.Example.")
        assert Question.of("x.example", RecordType.PTR) is not Question.of("x.example")

    def test_of_raises_for_a_bad_name_every_time(self):
        for _ in range(2):
            with pytest.raises(ValueError):
                Question.of("bad..name")


class TestDnsResponse:
    def test_cname_chain_in_order(self):
        chain = full_answer().cname_chain
        assert [record.target for record in chain] == [
            "appldnld.apple.com.akadns.net",
            "a.gslb.applimg.com",
        ]

    def test_addresses(self):
        assert [str(a) for a in full_answer().addresses] == [
            "17.253.0.1",
            "17.253.0.2",
        ]

    def test_final_name_follows_chain(self):
        assert full_answer().final_name == "a.gslb.applimg.com"

    def test_final_name_without_chain(self):
        response = DnsResponse(question=Question("x.example"))
        assert response.final_name == "x.example"
        assert response.is_empty()

    def test_default_rcode(self):
        assert full_answer().rcode is RCode.NOERROR


class TestQueryContext:
    def test_region_derived_from_continent(self):
        context = QueryContext(
            client=IPv4Address.parse("1.1.1.1"),
            coordinates=Coordinates(0, 0),
            continent=Continent.SOUTH_AMERICA,
            country="br",
        )
        assert context.region is MappingRegion.US

    def test_region_follows_a_replaced_continent(self):
        from dataclasses import replace

        context = QueryContext(
            client=IPv4Address.parse("1.1.1.1"),
            coordinates=Coordinates(0, 0),
            continent=Continent.EUROPE,
            country="de",
        )
        moved = replace(context, continent=Continent.ASIA, now=5.0)
        assert context.region is MappingRegion.EU
        assert moved.region is MappingRegion.APAC
        # The derived field is not part of a context's identity.
        assert replace(moved, continent=Continent.EUROPE, now=0.0) == context

    def test_a_stamped_copy_is_the_context_at_another_time(self):
        from dataclasses import replace

        base = QueryContext(
            client=IPv4Address.parse("198.51.100.7"),
            coordinates=Coordinates(0, 0),
            continent=Continent.ASIA,
            country="in",
        )
        assert base.client_bytes == b"198.51.100.7"
        stamped = base.at(300.0)
        assert stamped == replace(base, now=300.0) and stamped.now == 300.0
        assert stamped.region is MappingRegion.APAC
        assert base.now == 0.0
        # The spelled address rides along without being part of identity.
        assert vars(stamped)["client_bytes"] == b"198.51.100.7"
        assert repr(stamped) == repr(replace(base, now=300.0))

    def test_frozen(self):
        context = QueryContext(
            client=IPv4Address.parse("1.1.1.1"),
            coordinates=Coordinates(0, 0),
            continent=Continent.EUROPE,
            country="de",
        )
        with pytest.raises(AttributeError):
            context.country = "fr"
