"""Tests for repro.dns.zone and repro.dns.resolver.

The end-to-end fixtures here build a miniature three-operator estate
(Apple, Akamai, a CDN) shaped like the Figure 2 chain, and check that
recursive resolution walks it the way the RIPE Atlas probes did.
"""

import pytest

from repro.dns.policies import CnamePolicy, GslbAddressPolicy, StaticPolicy
from repro.dns.query import Question, QueryContext, RCode
from repro.dns.records import ARecord, CnameRecord, RecordType
from repro.dns.resolver import RecursiveResolver, ResolutionError
from repro.dns.wire import (
    ClientSubnet,
    WireMessage,
    decode_message,
    encode_message,
)
from repro.dns.zone import AuthoritativeServer, Zone
from repro.net.geo import Continent, Coordinates
from repro.net.ipv4 import IPv4Address, IPv4Prefix
from repro.serve.dnsserver import ZoneFrontend


def make_context(now=0.0):
    return QueryContext(
        client=IPv4Address.parse("198.51.100.7"),
        coordinates=Coordinates(52.52, 13.40),
        continent=Continent.EUROPE,
        country="de",
        now=now,
    )


@pytest.fixture
def estate():
    """Apple + Akamai servers forming a 3-hop chain to A records."""
    apple_zone = Zone("apple.com")
    apple_zone.bind(
        "appldnld.apple.com",
        CnamePolicy("appldnld.apple.com.akadns.net", ttl=21600),
    )
    applimg_zone = Zone("applimg.com")
    pool = [IPv4Address.parse(f"17.253.0.{i}").value for i in range(1, 9)]
    applimg_zone.bind(
        "a.gslb.applimg.com",
        GslbAddressPolicy(pool=lambda ctx: pool, ttl=20, answer_count=4),
    )
    apple_server = AuthoritativeServer("Apple", [apple_zone, applimg_zone])

    akadns_zone = Zone("akadns.net")
    akadns_zone.bind(
        "appldnld.apple.com.akadns.net",
        CnamePolicy("a.gslb.applimg.com", ttl=120),
    )
    akamai_server = AuthoritativeServer("Akamai", [akadns_zone])
    return apple_server, akamai_server


class TestZone:
    def test_bind_and_lookup(self):
        zone = Zone("apple.com")
        policy = CnamePolicy("x.akadns.net", ttl=60)
        zone.bind("appldnld.apple.com", policy)
        (record,) = zone.answer("appldnld.apple.com", make_context())
        assert record.target == "x.akadns.net"
        assert zone.answer("other.apple.com", make_context()) is None

    def test_bind_outside_zone_rejected(self):
        zone = Zone("apple.com")
        with pytest.raises(ValueError):
            zone.bind("www.akamai.net", CnamePolicy("x.example", ttl=1))

    def test_bind_normalises_names(self):
        zone = Zone("Apple.COM.")
        zone.bind("AppLDNLD.apple.com", CnamePolicy("x.akadns.net", ttl=1))
        assert "appldnld.apple.com" in zone
        assert zone.origin == "apple.com"

    def test_rebind_replaces(self):
        zone = Zone("apple.com")
        zone.bind("a.apple.com", CnamePolicy("v1.example", ttl=1))
        zone.bind("a.apple.com", CnamePolicy("v2.example", ttl=1))
        (record,) = zone.answer("a.apple.com", make_context())
        assert record.target == "v2.example"

    def test_answer_is_the_record_level_answer(self):
        zone = Zone("apple.com")
        zone.bind("a.apple.com", CnamePolicy("x.example", ttl=7))
        zone.bind("empty.apple.com", StaticPolicy(()))
        (record,) = zone.answer("a.apple.com", make_context())
        assert (record.name, record.target, record.ttl) == ("a.apple.com", "x.example", 7)
        # Bound but answering nothing is not the same as not bound.
        assert zone.answer("empty.apple.com", make_context()) == ()
        assert zone.answer("other.apple.com", make_context()) is None

    def test_answer_is_a_tuple_whatever_the_policy_returns(self):
        class Listy:
            def bind(self, name, now):
                return lambda context: [ARecord(name, IPv4Address.parse("10.0.0.1"), 5)]

        zone = Zone("apple.com")
        zone.bind("l.apple.com", Listy())
        assert type(zone.answer("l.apple.com", make_context())) is tuple

    def test_covers(self):
        zone = Zone("apple.com")
        assert zone.covers("deep.sub.apple.com")
        assert not zone.covers("apple.net")

    def test_len_and_names(self):
        zone = Zone("apple.com")
        zone.bind("a.apple.com", CnamePolicy("x.example", ttl=1))
        zone.bind("b.apple.com", CnamePolicy("y.example", ttl=1))
        assert len(zone) == 2
        assert set(zone.names()) == {"a.apple.com", "b.apple.com"}


class TestAuthoritativeServer:
    def test_refused_outside_zones(self, estate):
        apple_server, _ = estate
        response = apple_server.query(Question("www.akamai.net"), make_context())
        assert response.rcode is RCode.REFUSED

    def test_nxdomain_for_unbound_name(self, estate):
        apple_server, _ = estate
        response = apple_server.query(Question("nothing.apple.com"), make_context())
        assert response.rcode is RCode.NXDOMAIN

    def test_answers_bound_name(self, estate):
        apple_server, _ = estate
        response = apple_server.query(Question("appldnld.apple.com"), make_context())
        assert response.rcode is RCode.NOERROR
        assert response.cname_chain[0].target == "appldnld.apple.com.akadns.net"

    def test_query_in_zone_wraps_the_zone_answer(self, estate):
        apple_server, _ = estate
        zone = apple_server.zone_for("appldnld.apple.com")
        for name in ("appldnld.apple.com", "nothing.apple.com"):
            response = apple_server.query_in_zone(zone, Question(name), make_context())
            records = zone.answer(name, make_context())
            assert response.answers == (records or ())
            assert (response.rcode is RCode.NXDOMAIN) == (records is None)

    def test_most_specific_zone_wins(self):
        outer = Zone("example.com")
        outer.bind("a.sub.example.com", CnamePolicy("outer.example", ttl=1))
        inner = Zone("sub.example.com")
        inner.bind("a.sub.example.com", CnamePolicy("inner.example", ttl=1))
        server = AuthoritativeServer("Op", [outer, inner])
        response = server.query(Question("a.sub.example.com"), make_context())
        assert response.answers[0].target == "inner.example"

    def test_rtype_filtering(self, estate):
        apple_server, _ = estate
        response = apple_server.query(
            Question("appldnld.apple.com", RecordType.NS), make_context()
        )
        assert response.rcode is RCode.NOERROR
        assert response.is_empty()


class TestRecursiveResolver:
    def test_full_chain_resolution(self, estate):
        resolver = RecursiveResolver(estate)
        resolution = resolver.resolve("appldnld.apple.com", make_context())
        assert resolution.succeeded()
        assert resolution.chain_names == (
            "appldnld.apple.com",
            "appldnld.apple.com.akadns.net",
            "a.gslb.applimg.com",
        )
        assert len(resolution.addresses) == 4

    def test_operator_attribution(self, estate):
        resolver = RecursiveResolver(estate)
        resolution = resolver.resolve("appldnld.apple.com", make_context())
        operators = [step.operator for step in resolution.steps]
        assert operators == ["Apple", "Akamai", "Apple"]

    def test_server_for_prefers_specific_zone(self, estate):
        resolver = RecursiveResolver(estate)
        # akadns.net is Akamai's even though the name contains apple.com.
        server = resolver.server_for("appldnld.apple.com.akadns.net")
        assert server.operator == "Akamai"

    def test_missing_server_raises(self, estate):
        apple_server, _ = estate
        resolver = RecursiveResolver([apple_server])
        with pytest.raises(ResolutionError):
            resolver.resolve("appldnld.apple.com", make_context())

    def test_cname_loop_detected(self):
        zone = Zone("loop.example")
        zone.bind("a.loop.example", CnamePolicy("b.loop.example", ttl=1))
        zone.bind("b.loop.example", CnamePolicy("a.loop.example", ttl=1))
        resolver = RecursiveResolver([AuthoritativeServer("Op", [zone])])
        with pytest.raises(ResolutionError):
            resolver.resolve("a.loop.example", make_context())

    def test_dead_end_returns_nxdomain(self, estate):
        apple_server, akamai_server = estate
        broken = Zone("akadns.net")  # unbinds the middle hop
        resolver = RecursiveResolver(
            [apple_server, AuthoritativeServer("Akamai", [broken])]
        )
        resolution = resolver.resolve("appldnld.apple.com", make_context())
        assert resolution.rcode is RCode.NXDOMAIN
        assert not resolution.succeeded()

    def test_cache_hits_within_ttl(self, estate):
        resolver = RecursiveResolver(estate, cache=True)
        resolver.resolve("appldnld.apple.com", make_context(now=0))
        second = resolver.resolve("appldnld.apple.com", make_context(now=10))
        assert all(step.from_cache for step in second.steps)

    def test_cache_expires_after_ttl(self, estate):
        resolver = RecursiveResolver(estate, cache=True)
        resolver.resolve("appldnld.apple.com", make_context(now=0))
        # The GSLB A records have TTL 20: at now=30 they must be re-queried.
        third = resolver.resolve("appldnld.apple.com", make_context(now=30))
        gslb_steps = [s for s in third.steps if s.name == "a.gslb.applimg.com"]
        assert gslb_steps and not gslb_steps[0].from_cache

    def test_cache_disabled(self, estate):
        resolver = RecursiveResolver(estate, cache=False)
        resolver.resolve("appldnld.apple.com", make_context(now=0))
        again = resolver.resolve("appldnld.apple.com", make_context(now=1))
        assert not any(step.from_cache for step in again.steps)

    def test_flush(self, estate):
        resolver = RecursiveResolver(estate, cache=True)
        resolver.resolve("appldnld.apple.com", make_context(now=0))
        assert resolver.cache_stats().size > 0
        resolver.flush()
        assert resolver.cache_stats().size == 0

    def test_add_server(self, estate):
        apple_server, akamai_server = estate
        resolver = RecursiveResolver([apple_server])
        resolver.add_server(akamai_server)
        assert resolver.resolve("appldnld.apple.com", make_context()).succeeded()


def wire_chase(servers, name, context):
    """Walk the CNAME chain with every hop exchanged as RFC 1035 bytes.

    Returns ``(hops, rcode)``: one ``(operator, answers)`` pair per hop
    as decoded from the reply :class:`ZoneFrontend` encodes (the path
    ``AsyncDnsServer`` runs), and the last rcode.
    """
    frontend = ZoneFrontend(servers)
    hops = []
    for message_id in range(1, 17):
        server = frontend.server_for(name)
        query = encode_message(
            WireMessage(
                message_id=message_id,
                questions=[Question(name)],
                client_subnet=ClientSubnet(
                    IPv4Prefix.containing(context.client, 24)
                ),
            )
        )
        reply = decode_message(
            encode_message(frontend.answer(decode_message(query), context))
        )
        assert reply.message_id == message_id
        hops.append((server.operator, tuple(reply.answers)))
        cnames = [r for r in reply.answers if r.rtype is RecordType.CNAME]
        if not cnames or any(r.rtype is RecordType.A for r in reply.answers):
            return hops, reply.rcode
        name = cnames[0].data
    raise AssertionError("chain did not terminate")


class TestWireModeResolver:
    """Every hop over RFC 1035 bytes; results must equal the object path.

    (The resolver's own ``wire_mode`` switch is gone — the live
    ``dnsserver`` is what speaks bytes — so the chase over
    :meth:`ZoneFrontend.answer` is spelled out here as the reference.)
    """

    def test_wire_and_object_modes_agree(self, estate):
        context = make_context(now=42.0)
        plain = RecursiveResolver(estate, cache=False).resolve(
            "appldnld.apple.com", context
        )
        hops, rcode = wire_chase(estate, "appldnld.apple.com", context)
        assert rcode is plain.rcode
        assert [operator for operator, _ in hops] == [
            s.operator for s in plain.steps
        ]
        assert [answers for _, answers in hops] == [
            s.records for s in plain.steps
        ]
        wired = [r for _, answers in hops for r in answers]
        assert tuple(
            r.data for r in wired if r.rtype is RecordType.A
        ) == plain.addresses
        assert ("appldnld.apple.com",) + tuple(
            r.data for r in wired if r.rtype is RecordType.CNAME
        ) == plain.chain_names

    def test_wire_mode_with_cache(self, estate):
        resolver = RecursiveResolver(estate, cache=True)
        resolver.resolve("appldnld.apple.com", make_context(now=0.0))
        again = resolver.resolve("appldnld.apple.com", make_context(now=5.0))
        assert all(step.from_cache for step in again.steps)
        hops, _ = wire_chase(estate, "appldnld.apple.com", make_context(now=5.0))
        assert [answers for _, answers in hops] == [
            s.records for s in again.steps
        ]

    def test_wire_mode_nxdomain(self, estate):
        apple_server, _ = estate
        broken = Zone("akadns.net")
        servers = [apple_server, AuthoritativeServer("Akamai", [broken])]
        hops, rcode = wire_chase(servers, "appldnld.apple.com", make_context())
        assert rcode is RCode.NXDOMAIN
        assert hops[-1] == ("Akamai", ())
        resolution = RecursiveResolver(servers).resolve(
            "appldnld.apple.com", make_context()
        )
        assert resolution.rcode is RCode.NXDOMAIN
