"""The DNS responders' answer memos: repeated bodies answered from bytes.

``AsyncDnsServer`` and ``PublicResolverFront`` keep, per responder, what
a query's bytes after the id fix (a plan) and the reply bytes an answer
or cache entry gives that body.  These tests hold what a planned body
gets to what the validating path composes, and pin what must never ride
the memos: traced queries, a fault plane, malformed and REFUSED bodies.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apple.policy import NAMES
from repro.dns import wire
from repro.dns.query import Question, RCode
from repro.dns.records import ARecord, CnameRecord, RecordType
from repro.dns.wire import (
    ClientSubnet,
    WireMessage,
    decode_message,
    encode_message,
)
from repro.dns.zone import AuthoritativeServer, Zone
from repro.faults import FaultInjector, FaultKind, FaultSchedule, FaultWindow
from repro.net.geo import MappingRegion
from repro.net.ipv4 import IPv4Address, IPv4Prefix
from repro.obs import MetricsRegistry
from repro.obs.trace_context import TraceContext
from repro.serve import AsyncDnsServer, ClientDirectory, ZoneFrontend
from repro.serve.dnsserver import _FALLBACK_UDP_PAYLOAD
from repro.serve.resolverfront import PublicResolverFront, _CacheEntry
from repro.simulation import ScenarioConfig, Sep2017Scenario
from repro.workload import TIMELINE

RELEASE = TIMELINE.ios_11_0_release
DIRECTORY = ClientDirectory()
UNMATCHED = IPv4Prefix.parse("198.51.100.0/24")  # in no vantage block
GATED = "appears.gated.test"


class _AppearsAtRelease:
    """A name not bound before the release and answering nothing after:
    one body gets NXDOMAIN, then NOERROR, both with no records."""

    def bind(self, name, now):
        if now < RELEASE:
            return None
        return lambda context: ()


_ESTATE = []


def _servers():
    """The replay's Figure 2 estate (``a1015`` switch, weight schedules)
    plus a zone whose one name appears at the release."""
    if not _ESTATE:
        scenario = Sep2017Scenario(
            ScenarioConfig(global_probe_count=2, isp_probe_count=1)
        )
        gated = Zone("gated.test")
        gated.bind(GATED, _AppearsAtRelease())
        _ESTATE.append((
            [*scenario.estate.servers, AuthoritativeServer("Test", [gated])],
            scenario.timeline.ios_11_0_release + scenario.config.a1015_delay_seconds,
        ))
    return _ESTATE[0]


CHAIN = (
    NAMES.entry_point, NAMES.akadns_entry, NAMES.india_lb, NAMES.china_lb,
    NAMES.selection, NAMES.gslb_a, NAMES.gslb_b, NAMES.edgesuite,
    NAMES.akamai_primary, NAMES.akamai_secondary, NAMES.limelight_us_eu,
    NAMES.limelight_apac, NAMES.manifest_host,
    *(NAMES.ios8_lb(region) for region in MappingRegion),
    GATED,
)


def _edges():
    return (TIMELINE.at(9, 12), RELEASE, _servers()[1], TIMELINE.at(9, 26))


# Sep 12-26, with weight on the release, the a1015 switch and the
# bucket edges of the chain's TTLs around them.
TIMES = st.one_of(
    st.floats(TIMELINE.at(9, 12), TIMELINE.at(9, 26)),
    st.builds(
        lambda index, ttl, step, nudge: (
            _edges()[index] // ttl + step) * ttl + nudge,
        st.integers(0, 3), st.sampled_from((15, 120, 3600, 21600)),
        st.integers(-2, 2), st.sampled_from((-1.0, -1e-3, 0.0, 1e-3)),
    ),
    st.integers(0, 3).map(lambda index: _edges()[index]),
)
CLIENTS = st.one_of(
    st.integers(0, 10_000).map(lambda sequence: DIRECTORY.sample(sequence).address),
    st.integers(1, 254).map(lambda host: UNMATCHED.host(host)),
)
ASKERS = st.tuples(
    CLIENTS,
    st.sampled_from((None, 0, 16, 24, 32)),           # ECS source length
    st.sampled_from((None, 64, 512, 4096)),           # advertised UDP size
)
IDS = st.integers(0, 0xFFFF)


def _query(message_id, name, client, ecs, udp_size=None, trace=None):
    return encode_message(WireMessage(
        message_id=message_id,
        questions=[Question.of(name, RecordType.A)],
        client_subnet=(
            None if ecs is None
            else ClientSubnet(IPv4Prefix.containing(client, ecs))
        ),
        udp_payload_size=udp_size,
        trace_context=trace,
    ))


def _reference(frontend, payload, now):
    """What the validating path composes, through the public API: the
    directory's geography, the matched block's length as the ECS scope
    (0 for the default geography), ``ZoneFrontend.answer`` (the
    ``reply_message`` of the zone's answer), the encoder, and the bare
    TC reply past the UDP limit."""
    query = decode_message(payload)
    if query.client_subnet is None:
        context = DIRECTORY.context_for(DIRECTORY.vantages[0].prefix.network, now)
        scope = None
    else:
        network = query.client_subnet.prefix.network
        context = DIRECTORY.context_for(network, now)
        vantage = DIRECTORY.vantage_for(network)
        scope = vantage.prefix.length if vantage is not None else 0
    reply = frontend.answer(query, context, scope)
    encoded = encode_message(reply)
    if len(encoded) > (query.udp_payload_size or _FALLBACK_UDP_PAYLOAD):
        encoded = encode_message(WireMessage(
            message_id=reply.message_id, is_response=True,
            authoritative=reply.authoritative, truncated=True,
            recursion_desired=reply.recursion_desired, rcode=reply.rcode,
            questions=reply.questions, client_subnet=reply.client_subnet,
        ))
    return encoded


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(CHAIN),
    askers=st.lists(ASKERS, min_size=1, max_size=3),
    times=st.lists(TIMES, min_size=1, max_size=3),
    ids=st.tuples(IDS, IDS),
)
def test_a_planned_body_gets_the_validating_paths_bytes(name, askers, times, ids):
    servers, _a1015_switch = _servers()
    clock = [0.0]
    server = AsyncDnsServer(servers, directory=DIRECTORY, clock=lambda: clock[0])
    frontend = ZoneFrontend(servers)
    for now in times:
        clock[0] = now
        for client, ecs, udp_size in askers:
            for message_id in ids:  # the first and a later sight
                payload = _query(message_id, name, client, ecs, udp_size)
                assert server.handle_datagram(payload) == _reference(
                    frontend, payload, now
                )
    assert server._plans, "no body was planned"


def _front(clock):
    front = PublicResolverFront(
        directory=DIRECTORY, metrics=MetricsRegistry(), clock=lambda: clock[0]
    )
    sent = []
    front._listener.sendto = lambda data, addr: sent.append(data)
    return front, sent


def _install(front, client, name, entry, now):
    """Cache ``entry`` where a query for ``name`` by ``client`` looks."""
    pop = front._pop_for(client)
    announced, _length = front._announced(client, pop)
    front._scope_memo[(pop.pop_id, name)] = entry.scope
    front._caches[pop.pop_id].put(
        (name, front._truncate(announced, entry.scope), entry.scope), entry, now
    )


ANSWER_SETS = (
    (),
    (ARecord(NAMES.gslb_a, IPv4Address.parse("17.253.1.1"), 15),),
    (CnameRecord(NAMES.selection, NAMES.gslb_b, 120),
     ARecord(NAMES.gslb_b, IPv4Address.parse("17.253.2.2"), 15)),
)
ENTRIES = st.tuples(
    st.sampled_from(ANSWER_SETS),
    st.sampled_from((RCode.NOERROR, RCode.NXDOMAIN)),
    st.sampled_from((0, 8, 16, 24, 32)),
)


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(CHAIN),
    askers=st.lists(
        st.tuples(CLIENTS, st.sampled_from((None, 0, 16, 24, 32))),
        min_size=1, max_size=3,
    ),
    rounds=st.lists(st.lists(ENTRIES, min_size=3, max_size=3),
                    min_size=1, max_size=3),
    ids=st.tuples(IDS, IDS),
)
def test_a_front_hit_gets_the_reply_its_entry_composes(name, askers, rounds, ids):
    clock = [1000.0]
    front, sent = _front(clock)
    for entries in rounds:
        clock[0] += 1.0
        for (client, ecs), (answers, rcode, scope) in zip(askers, entries):
            entry = _CacheEntry(answers, rcode, True, scope, clock[0] + 60.0)
            asked = (
                None if ecs is None
                else IPv4Prefix.containing(client, ecs).network
            )
            _install(front, asked, name, entry, clock[0])
            for message_id in ids:  # the first and a later sight
                hits = front.cache_stats()["hits"]
                data = _query(message_id, name, client, ecs)
                front._dispatch(data, None)
                assert front.cache_stats()["hits"] == hits + 1
                assert sent.pop() == front._reply(decode_message(data), entry)
    assert not front._tasks


@given(value=st.integers(0, 2**32 - 1), scope=st.integers(0, 32))
def test_the_front_truncates_to_the_prefix_network(value, scope):
    address = IPv4Address(value)
    assert PublicResolverFront._truncate(address, scope) == (
        IPv4Prefix.containing(address, scope).network.value
    )


# ----------------------------------------------------------------------
# what never rides the memos
# ----------------------------------------------------------------------


def _registry_server(serve_estate, **kwargs):
    registry = MetricsRegistry()
    server = AsyncDnsServer(
        serve_estate.servers, clock=lambda: 0.0, metrics=registry, **kwargs
    )
    return server, registry


def _memo_sizes(responder):
    return len(responder._plans), len(responder._replies)


class TestBypass:
    CLIENT = IPv4Address.parse("100.64.3.7")

    def test_traced_queries_echo_their_own_option_and_grow_no_memo(
        self, serve_estate
    ):
        server, _registry = _registry_server(serve_estate)
        contexts = (TraceContext(0x1234, 0x77), TraceContext(0x5678, 0x99))
        for trace in contexts + contexts:
            payload = _query(9, NAMES.entry_point, self.CLIENT, 24, trace=trace)
            reply = decode_message(server.handle_datagram(payload))
            assert reply.trace_context == trace and reply.answers
        assert _memo_sizes(server) == (0, 0)

        clock = [5.0]
        front, sent = _front(clock)
        entry = _CacheEntry(ANSWER_SETS[1], RCode.NOERROR, True, 16, 100.0)
        network = IPv4Prefix.containing(self.CLIENT, 24).network
        _install(front, network, NAMES.gslb_a, entry, clock[0])
        for trace in contexts + contexts:
            front._dispatch(
                _query(3, NAMES.gslb_a, self.CLIENT, 24, trace=trace), None
            )
            reply = decode_message(sent.pop())
            assert reply.trace_context == trace
            assert tuple(reply.answers) == ANSWER_SETS[1]
        assert front.cache_stats()["hits"] == 4
        assert _memo_sizes(front) == (0, 0)

    @pytest.mark.parametrize("kind", [
        FaultKind.DNS_DROP, FaultKind.DNS_SERVFAIL, FaultKind.DNS_STALE,
    ])
    def test_a_fault_window_hits_a_repeated_body_every_time(
        self, serve_estate, kind
    ):
        now = 7200.0
        staleness = 3600.0
        registry = MetricsRegistry()
        injector = FaultInjector(
            FaultSchedule([FaultWindow(0.0, 1e9, "*", kind, staleness)]),
            clock=lambda: now, metrics=registry,
        )
        server = AsyncDnsServer(
            serve_estate.servers, clock=lambda: now, faults=injector,
            metrics=registry,
        )
        clean = ZoneFrontend(serve_estate.servers)
        for message_id in range(1, 6):
            payload = _query(message_id, NAMES.entry_point, self.CLIENT, 24)
            reply = server.handle_datagram(payload)
            if kind is FaultKind.DNS_DROP:
                assert reply is None
            elif kind is FaultKind.DNS_SERVFAIL:
                assert decode_message(reply).rcode is RCode.SERVFAIL
            else:
                assert reply == _reference(clean, payload, now - staleness)
            injected = registry.get("faults_injected_total").labels(kind.value)
            assert injected.value == message_id
        assert _memo_sizes(server) == (0, 0)

    def test_malformed_and_refused_bodies_are_counted_on_every_repeat(
        self, serve_estate
    ):
        server, registry = _registry_server(serve_estate)
        garbage = b"\x12\x34" + b"\xff" * 20
        refused = _query(5, "www.example.net", self.CLIENT, 24)
        for repeat in range(1, 4):
            assert decode_message(server.handle_datagram(garbage)).rcode \
                is RCode.SERVFAIL
            assert decode_message(server.handle_datagram(refused)).rcode \
                is RCode.REFUSED
            assert registry.get("serve_dns_malformed_total").value == repeat
            assert registry.get("serve_dns_refused_total").value == repeat
        assert _memo_sizes(server) == (0, 0)

        front, sent = _front([0.0])
        for _repeat in range(3):
            front._dispatch(garbage, None)
            assert decode_message(sent.pop()).rcode is RCode.SERVFAIL
        assert _memo_sizes(front) == (0, 0)


# ----------------------------------------------------------------------
# bounds
# ----------------------------------------------------------------------


def _wire_memos():
    return (wire._SECTIONS, wire._DECODED, wire._QUERIES)


def test_every_memo_stays_within_the_bound_past_600_distinct_bodies(serve_estate):
    bound = wire._MEMO_BOUND
    hosts = [IPv4Address(0x64400000 + host) for host in range(1, 651)]
    server, _registry = _registry_server(serve_estate)
    for client in hosts:
        payload = _query(1, NAMES.entry_point, client, 32)
        assert server.handle_datagram(payload) == server.handle_datagram(payload)
        assert max(_memo_sizes(server)) <= bound
        assert all(len(memo) <= bound for memo in _wire_memos())
    assert _memo_sizes(server) == (bound, bound)

    clock = [10.0]
    front, sent = _front(clock)
    entry = _CacheEntry(ANSWER_SETS[1], RCode.NOERROR, True, 16, 100.0)
    _install(front, hosts[0], NAMES.gslb_a, entry, clock[0])
    for client in hosts:
        data = _query(2, NAMES.gslb_a, client, 32)
        front._dispatch(data, None)
        front._dispatch(data, None)
        assert sent.pop() == sent.pop()
        assert max(_memo_sizes(front)) <= bound
        assert len(front._pop_memo) <= bound
    assert front.cache_stats()["hits"] == 2 * len(hosts)
    assert _memo_sizes(front) == (bound, bound)


def test_refused_names_leave_the_zone_map_within_the_bound(serve_estate):
    """A peer asking ever new names outside every zone: each is REFUSED,
    and the server's name -> (server, zone) map keeps the newest
    ``_MEMO_BOUND`` of them, not all 20 000."""
    server, registry = _registry_server(serve_estate)
    client = IPv4Address.parse("100.64.0.1")
    for index in range(20_000):
        reply = server.handle_datagram(_query(7, f"x{index}.example.net", client, 24))
        assert decode_message(reply).rcode is RCode.REFUSED
    assert registry.get("serve_dns_refused_total").value == 20_000
    assert len(server.frontend._map._memo) <= wire._MEMO_BOUND
    # What the map still routes is routed as before.
    assert server.frontend._map.locate(NAMES.entry_point)[1] is not None
