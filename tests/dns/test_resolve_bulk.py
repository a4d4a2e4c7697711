"""The chase: ``resolve()`` / ``resolve_bulk()``, and what checks them.

``resolve()`` is the one-client call of ``resolve_bulk()``: both run
the same loop, so the first test below only shows that the two entry
points agree.  What the loop *should* do is checked against
``reference_chase`` further down — a hop-by-hop walk through the public
message API with a plain-dict TTL cache, over fixed and
Hypothesis-generated estates: equal steps (with their ``from_cache``
flags), rcodes, error messages, chain views and per-resolver cache
counters, across TTL boundaries, with and without a ``ServerMap``, and
with clients asking at different times in one call.  A traced run's
registry families must count what the reference counted.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns.policies import (
    CnamePolicy,
    CountrySplitPolicy,
    GslbAddressPolicy,
    StaticPolicy,
)
from repro.dns.query import Question, QueryContext, RCode
from repro.dns.records import ARecord, CnameRecord, RecordType
from repro.dns.resolver import (
    RecursiveResolver,
    Resolution,
    ResolutionError,
    ResolutionStep,
    ServerMap,
    resolve_bulk,
)
from repro.dns.zone import AuthoritativeServer, Zone
from repro.net.geo import Continent, Coordinates
from repro.net.ipv4 import IPv4Address
from repro.obs import NULL_REGISTRY, MetricsRegistry, use_registry


CLIENTS = [IPv4Address.parse(f"198.51.100.{host}") for host in (7, 8, 9, 200)]
# Either side of the 20 s GSLB, 120 s akadns and 21600 s entry TTLs.
TIMES = [0.0, 5.0, 19.0, 20.0, 21.0, 119.0, 121.0, 21599.0, 21601.0]
NAMES = [
    "appldnld.apple.com",      # full chain to A records
    "deadend.apple.com",       # CNAME into a bound-less name: NXDOMAIN
    "loop-a.apple.com",        # CNAME loop
    "orphan.apple.com",        # CNAME to a name nobody serves
    "unbound.apple.com",       # covered zone, no policy: NXDOMAIN at hop 1
    "nobody.example",          # no authoritative server at hop 1
]


def context(client, now):
    return QueryContext(
        client=client,
        coordinates=Coordinates(52.52, 13.40),
        continent=Continent.EUROPE,
        country="de",
        now=now,
    )


def build_servers():
    apple = Zone("apple.com")
    apple.bind("appldnld.apple.com", CnamePolicy("appldnld.apple.com.akadns.net", 21600))
    apple.bind("deadend.apple.com", CnamePolicy("missing.applimg.com", 60))
    apple.bind("loop-a.apple.com", CnamePolicy("loop-b.apple.com", 60))
    apple.bind("loop-b.apple.com", CnamePolicy("loop-a.apple.com", 60))
    apple.bind("orphan.apple.com", CnamePolicy("host.nowhere.example", 60))
    applimg = Zone("applimg.com")
    pool = [IPv4Address.parse(f"17.253.0.{i}").value for i in range(1, 7)]
    applimg.bind(
        "a.gslb.applimg.com",
        GslbAddressPolicy(pool=lambda ctx: pool, ttl=20, answer_count=3),
    )
    akadns = Zone("akadns.net")
    akadns.bind("appldnld.apple.com.akadns.net", CnamePolicy("a.gslb.applimg.com", 120))
    return [
        AuthoritativeServer("Apple", [apple, applimg]),
        AuthoritativeServer("Akamai", [akadns]),
    ]


def one_by_one(resolver, name, ctx):
    try:
        return resolver.resolve(name, ctx)
    except ResolutionError as exc:
        return exc


def same_outcome(left, right):
    if isinstance(left, ResolutionError) or isinstance(right, ResolutionError):
        return type(left) is type(right) and str(left) == str(right)
    return left == right


@pytest.mark.parametrize("with_map", [False, True])
@pytest.mark.parametrize("cache", [True, False])
def test_resolve_and_bulk_agree_across_ttl_boundaries(cache, with_map):
    servers = build_servers()
    singles = [RecursiveResolver(servers, cache=cache) for _ in CLIENTS]
    bulks = [RecursiveResolver(servers, cache=cache) for _ in CLIENTS]
    server_map = ServerMap(servers) if with_map else None
    seen_rcodes, seen_errors, seen_cached = set(), set(), False
    for now in TIMES:
        for name in NAMES:
            expected = [
                one_by_one(resolver, name, context(client, now))
                for resolver, client in zip(singles, CLIENTS)
            ]
            got = resolve_bulk(
                [(r, context(c, now)) for r, c in zip(bulks, CLIENTS)],
                name,
                server_map,
            )
            assert len(got) == len(expected)
            for left, right in zip(expected, got):
                assert same_outcome(left, right), (now, name, left, right)
                if isinstance(left, Resolution):
                    seen_rcodes.add(left.rcode)
                    seen_cached |= any(step.from_cache for step in left.steps)
                    assert left.steps == right.steps
                    assert left.addresses == right.addresses
                    assert left.chain_names == right.chain_names
                else:
                    seen_errors.add(str(left).split(" ")[0])
        for single, bulk in zip(singles, bulks):
            assert single.cache_stats() == bulk.cache_stats()
    # The estate really exercised every outcome shape.
    assert seen_rcodes == {RCode.NOERROR, RCode.NXDOMAIN}
    assert seen_errors == {"CNAME", "no"}
    assert seen_cached == cache


def test_chain_length_limit_is_reported_by_both():
    zone = Zone("chain.example")
    for hop in range(20):
        zone.bind(f"h{hop}.chain.example", CnamePolicy(f"h{hop + 1}.chain.example", 30))
    servers = [AuthoritativeServer("Chain", [zone])]
    ctx = context(CLIENTS[0], 0.0)
    with pytest.raises(ResolutionError, match="chain longer than 16"):
        RecursiveResolver(servers).resolve("h0.chain.example", ctx)
    (outcome,) = resolve_bulk([(RecursiveResolver(servers), ctx)], "h0.chain.example")
    assert isinstance(outcome, ResolutionError)
    assert "chain longer than 16" in str(outcome)


def test_resolution_views_are_computed_once():
    resolver = RecursiveResolver(build_servers())
    resolution = resolver.resolve("appldnld.apple.com", context(CLIENTS[0], 0.0))
    assert resolution.addresses is resolution.addresses
    assert resolution.chain_names is resolution.chain_names
    assert resolution.cname_chain is resolution.cname_chain
    assert resolution.chain_names == (
        "appldnld.apple.com",
        "appldnld.apple.com.akadns.net",
        "a.gslb.applimg.com",
    )
    assert resolution.final_name == "a.gslb.applimg.com"
    assert len(resolution.addresses) == 3 and resolution.succeeded()
    # The cached views do not leak into value identity.
    again = Resolution(resolution.question, resolution.steps, resolution.rcode)
    assert again == resolution and hash(again) == hash(resolution)


# ----------------------------------------------------------------------
# The chain views are the walk, for chase-built and hand-built alike
# ----------------------------------------------------------------------


def _static_estate(bindings):
    zone = Zone("walk.example")
    for name, records in bindings.items():
        zone.bind(name, StaticPolicy(tuple(records)))
    return [AuthoritativeServer("Walk", [zone])]


def _both_shapes(servers, name):
    """The chase-built resolution and the same value built from its fields."""
    built = RecursiveResolver(servers).resolve(name, context(CLIENTS[0], 0.0))
    by_hand = Resolution(built.question, built.steps, built.rcode)
    assert "chain_names" in vars(built) and "chain_names" not in vars(by_hand)
    return built, by_hand


def test_views_name_only_the_cnames_the_chase_followed():
    # a -> {CNAME b, CNAME c}: the chase follows b and never asks c.
    a, b, c = "a.walk.example", "b.walk.example", "c.walk.example"
    address = IPv4Address.parse("10.0.0.1")
    servers = _static_estate({
        a: [CnameRecord(a, b, 30), CnameRecord(a, c, 30)],
        b: [ARecord(b, address, 30)],
        c: [ARecord(c, IPv4Address.parse("10.0.0.2"), 30)],
    })
    for resolution in _both_shapes(servers, a):
        assert resolution.chain_names == (a, b)
        assert resolution.final_name == b
        assert resolution.cname_chain == (CnameRecord(a, b, 30),)
        assert resolution.addresses == (address,)
        # Both CNAMEs are still on the record of what was answered.
        assert len(resolution.steps[0].records) == 2


def test_views_stop_at_the_hop_that_answered_addresses():
    # m holds a CNAME beside its A records: the A records end the chase
    # at m, so the address was answered for m, not for the CNAME target.
    m, b = "m.walk.example", "b.walk.example"
    address = IPv4Address.parse("10.0.0.7")
    servers = _static_estate({
        m: [CnameRecord(m, b, 30), ARecord(m, address, 30)],
        b: [ARecord(b, IPv4Address.parse("10.0.0.8"), 30)],
    })
    for resolution in _both_shapes(servers, m):
        assert resolution.chain_names == (m,)
        assert resolution.final_name == m
        assert resolution.cname_chain == ()
        assert resolution.addresses == (address,)
        assert resolution.succeeded()


def test_hand_built_views_ignore_steps_past_the_answer():
    a, b = "a.walk.example", "b.walk.example"
    address = IPv4Address.parse("10.0.0.1")
    steps = (
        ResolutionStep(a, "Walk", (CnameRecord(a, b, 30),)),
        ResolutionStep(b, "Walk", (ARecord(b, address, 30),)),
        ResolutionStep("z.walk.example", "Walk", (ARecord("z.walk.example", address, 5),)),
    )
    resolution = Resolution(Question(a), steps)
    assert resolution.chain_names == (a, b)
    assert resolution.addresses == (address,)
    # An empty chase (the SERVFAIL placeholder of atlas.awsvm) has no walk.
    empty = Resolution(Question(a), (), RCode.SERVFAIL)
    assert empty.chain_names == (a,) and empty.final_name == a
    assert empty.addresses == () and empty.cname_chain == () and not empty.succeeded()


# ----------------------------------------------------------------------
# An oracle that is not the code under test
# ----------------------------------------------------------------------
#
# ``reference_chase`` below asks every hop through the public *message*
# API — ``AuthoritativeServer.query(Question(name), context)`` — finds
# the server by the documented rule, and keeps its TTL cache in a plain
# dict.  The resolver asks ``Zone.answer`` directly, through a
# ``ServerMap`` and a ``TtlCache``; the two share no code between the
# estate and the outcome, so agreement is evidence.


class ReferenceCache:
    """A per-resolver TTL cache as the docs describe it, in a dict."""

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.entries = {}
        self.hits = self.misses = self.evictions = 0
        self.horizon = float("-inf")

    def stats(self):
        live = sum(1 for _, expires in self.entries.values() if expires > self.horizon)
        return (self.hits, self.misses, self.evictions, live)


class Tally:
    """What the registry should have counted, kept by the reference."""

    BUCKETS = (1, 2, 3, 4, 5, 6, 8, 12, 16)

    def __init__(self):
        self.queries, self.answers = {}, {}
        self.lengths = []

    def query(self, operator, records):
        self.queries[operator] = self.queries.get(operator, 0) + 1
        if records:
            self.answers[operator] = self.answers.get(operator, 0) + len(records)

    def families(self, caches):
        """The registry families as ``{name: {labels: value}}``, absent
        children (nothing counted) left out."""

        def total(count):
            return {(): float(count)} if count else {}

        buckets = [0] * len(self.BUCKETS)
        for length in self.lengths:
            buckets[next(i for i, upper in enumerate(self.BUCKETS) if length <= upper)] += 1
        return {
            "dns_queries_total": {(op,): float(n) for op, n in self.queries.items()},
            "dns_answer_records_total": {(op,): float(n) for op, n in self.answers.items()},
            "dns_cache_hits_total": total(sum(cache.hits for cache in caches)),
            "dns_cache_misses_total": total(sum(cache.misses for cache in caches)),
            "dns_cache_evictions_total": total(sum(cache.evictions for cache in caches)),
            "dns_resolutions_total": total(len(self.lengths)),
            "dns_cname_chain_length": (
                {(): (buckets, float(sum(self.lengths)), len(self.lengths))}
                if self.lengths else {}
            ),
        }


def registry_families(registry):
    snapshot = registry.snapshot(list(Tally().families([])))
    return {name: entry["children"] for name, entry in snapshot.items()}


def reference_hop(cache, servers, name, ctx, tally):
    now = ctx.now
    if cache.enabled:
        cache.horizon = max(cache.horizon, now)
        held = cache.entries.get(name)
        if held is not None:
            (operator, records), expires = held
            if expires > now:
                cache.hits += 1
                return ResolutionStep(name, operator, records, True)
            del cache.entries[name]
            cache.evictions += 1
        cache.misses += 1
    # Most specific covering zone wins; the earlier server on a tie.
    best, best_depth = None, -1
    for server in servers:
        zone = server.zone_for(name)
        if zone is not None and len(zone.origin.split(".")) > best_depth:
            best, best_depth = server, len(zone.origin.split("."))
    if best is None:
        raise ResolutionError(f"no authoritative server for {name!r}")
    records = best.query(Question(name), ctx).answers
    tally.query(best.operator, records)
    if cache.enabled and records:
        expires = now + min(record.ttl for record in records)
        cache.entries[name] = ((best.operator, records), expires)
    return ResolutionStep(name, best.operator, records, False)


def reference_chase(clients, qname, servers, tally):
    """Level-synchronous, like the real one: all clients take hop 1,
    then all still chasing take hop 2, ... (a cache listed for several
    clients sees the queries in that order).  Returns one expectation per client: an
    error message, or (steps, rcode, names, followed, addresses)."""
    chases = [
        {"cache": cache, "ctx": ctx, "names": [qname], "steps": [], "followed": []}
        for cache, ctx in clients
    ]
    expected = [None] * len(chases)
    for _ in range(16):
        for index, chase in enumerate(chases):
            if expected[index] is not None:
                continue
            try:
                step = reference_hop(
                    chase["cache"], servers, chase["names"][-1], chase["ctx"], tally
                )
            except ResolutionError as exc:
                expected[index] = str(exc)
                continue
            chase["steps"].append(step)
            addresses = tuple(r.address for r in step.records if r.rtype is RecordType.A)
            cnames = [r for r in step.records if r.rtype is RecordType.CNAME]
            if addresses or not cnames:
                rcode = RCode.NOERROR if addresses else RCode.NXDOMAIN
                tally.lengths.append(len(chase["steps"]))
                expected[index] = (
                    tuple(chase["steps"]), rcode, tuple(chase["names"]),
                    tuple(chase["followed"]), addresses,
                )
            elif cnames[0].target in chase["names"]:
                expected[index] = f"CNAME loop at {cnames[0].target!r}"
            else:
                chase["followed"].append(cnames[0])
                chase["names"].append(cnames[0].target)
    return [
        f"chain longer than 16 for {qname!r}" if outcome is None else outcome
        for outcome in expected
    ]


def assert_matches_reference(outcome, expected, where):
    if isinstance(expected, str):
        assert isinstance(outcome, ResolutionError), (where, outcome, expected)
        assert str(outcome) == expected, where
        return
    assert isinstance(outcome, Resolution), (where, outcome, expected)
    steps, rcode, names, followed, addresses = expected
    assert outcome.steps == steps, where            # incl. from_cache
    assert outcome.rcode is rcode, where
    # The views, as the chase filled them and as a hand-built copy derives them.
    for resolution in (outcome, Resolution(outcome.question, outcome.steps, outcome.rcode)):
        assert resolution.chain_names == names, where
        assert resolution.cname_chain == followed, where
        assert resolution.addresses == addresses, where
        assert resolution.final_name == names[-1], where
        assert resolution.succeeded() == bool(addresses), where


ORACLE_ZONES = ("a.test", "deep.a.test", "b.test", "tie.test", "nowhere.invalid")
ORACLE_CLIENTS = [
    # (client, country): two /24 neighbours, one /16 neighbour, two far away.
    ("198.51.100.7", "de"), ("198.51.100.200", "fr"),
    ("198.51.7.7", "in"), ("203.0.113.9", "us"), ("192.0.2.77", "jp"),
]


def oracle_name(index, zone):
    return f"n{index}.{ORACLE_ZONES[zone]}"


def oracle_context(client, country, now):
    return QueryContext(
        client=IPv4Address.parse(client),
        coordinates=Coordinates(52.52, 13.40),
        continent=Continent.EUROPE,
        country=country,
        now=now,
    )


def build_oracle_estate(spec):
    """Servers for ``spec``: one (zone index, binding) per name.

    ``One`` hosts a.test and tie.test, ``Two`` the deeper deep.a.test
    plus b.test, ``Three`` tie.test again (registered later: never
    asked).  Nobody hosts nowhere.invalid.
    """
    names = [oracle_name(index, zone) for index, (zone, _) in enumerate(spec)]
    zones = {origin: Zone(origin) for origin in ORACLE_ZONES[:4]}
    shadow = Zone("tie.test")

    def addresses(index, count):
        return [IPv4Address.parse(f"10.{index}.0.{host + 1}") for host in range(count)]

    for index, (zone_index, binding) in enumerate(spec):
        origin, name = ORACLE_ZONES[zone_index], names[index]
        if origin == "nowhere.invalid" or binding[0] == "unbound":
            continue
        kind = binding[0]
        if kind == "cname":
            _, targets, ttl = binding
            policy = StaticPolicy(tuple(
                CnameRecord(name, names[target % len(names)], ttl) for target in targets
            ))
        elif kind == "a":
            _, count, ttl = binding
            policy = StaticPolicy(tuple(
                ARecord(name, address, ttl + host)      # mixed TTLs: the min caches
                for host, address in enumerate(addresses(index, count))
            ))
        elif kind == "cname+a":
            _, target, count, ttl = binding
            policy = StaticPolicy(
                (CnameRecord(name, names[target % len(names)], ttl),)
                + tuple(ARecord(name, address, ttl) for address in addresses(index, count))
            )
        elif kind == "empty":
            policy = StaticPolicy(())
        elif kind == "country":
            _, default, override, ttl = binding
            policy = CountrySplitPolicy(
                default=names[default % len(names)],
                overrides={"in": names[override % len(names)]},
                ttl=ttl,
            )
        else:
            _, size, answer_count, ttl = binding
            pool = [address.value for address in addresses(index, size)]
            policy = GslbAddressPolicy(
                pool=lambda ctx, pool=pool: pool, ttl=ttl,
                answer_count=answer_count, salt=name,
            )
        zones[origin].bind(name, policy)
        if origin == "tie.test":
            shadow.bind(name, StaticPolicy((ARecord(name, IPv4Address.parse("192.0.2.66"), 60),)))
    servers = [
        AuthoritativeServer("One", [zones["a.test"], zones["tie.test"]]),
        AuthoritativeServer("Two", [zones["deep.a.test"], zones["b.test"]]),
        AuthoritativeServer("Three", [shadow]),
    ]
    return names, servers


def run_against_reference(spec, ops, caches, with_map, traced=False):
    """Drive resolvers and reference side by side through ``ops``.

    Every client owns a resolver, as every probe does: clients 0-1 with
    the cache on or off per ``caches``, clients 2-4 caching.  An op is
    ``(advance, target, singly)`` or ``(advance, target, singly,
    skews)``: client ``i`` asks at the op's time plus ``skews[i]``.
    ``traced`` gives every resolver one registry, whose DNS families
    must hold exactly what the reference counted.
    """
    names, servers = build_oracle_estate(spec)
    server_map = ServerMap(servers) if with_map else None
    registry = MetricsRegistry() if traced else NULL_REGISTRY
    enabled = tuple(caches) + (True,) * (len(ORACLE_CLIENTS) - len(caches))
    with use_registry(registry):
        resolvers = [RecursiveResolver(servers, cache=cache) for cache in enabled]
    references = [ReferenceCache(cache) for cache in enabled]
    tally = Tally()
    now = 0.0
    for step, (advance, target, singly, *skews) in enumerate(ops):
        skews = skews[0] if skews else (0.0,) * len(ORACLE_CLIENTS)
        now += advance
        qname = names[target % len(names)]
        contexts = [
            oracle_context(client, country, now + skew)
            for (client, country), skew in zip(ORACLE_CLIENTS, skews)
        ]
        ref_clients = list(zip(references, contexts))
        if singly:
            # resolve() is the one-client call: whole chases back to
            # back, and so in the reference.
            got = [one_by_one(r, qname, c) for r, c in zip(resolvers, contexts)]
            expected = [
                reference_chase([client], qname, servers, tally)[0] for client in ref_clients
            ]
        else:
            got = resolve_bulk(list(zip(resolvers, contexts)), qname, server_map)
            expected = reference_chase(ref_clients, qname, servers, tally)
        for index, (outcome, wanted) in enumerate(zip(got, expected)):
            assert_matches_reference(outcome, wanted, (step, qname, index))
        for resolver, reference in zip(resolvers, references):
            stats = resolver.cache_stats()
            assert (
                stats.hits, stats.misses, stats.evictions, stats.size
            ) == reference.stats(), (step, qname)
        if traced:
            assert registry_families(registry) == tally.families(references), (
                step, qname,
            )


def chain_spec(length, ttl=10):
    """``length`` CNAME hops in a row ending in an A record: ``length + 1`` queries."""
    spec = [(index % 3, ("cname", [index + 1], ttl)) for index in range(length)]
    return spec + [(0, ("a", 2, ttl))]


@pytest.mark.parametrize("with_map", [False, True])
@pytest.mark.parametrize("hops", [14, 15, 16, 17])
def test_reference_agrees_at_the_chain_length_limit(hops, with_map):
    # 15 CNAME hops + the A hop is the 16 queries _MAX_CHAIN allows.
    ops = [(0.0, 0, False), (5.0, 0, True), (20.0, 0, False)]
    run_against_reference(chain_spec(hops), ops, (True, False), with_map)
    servers = build_oracle_estate(chain_spec(hops))[1]
    outcome = one_by_one(RecursiveResolver(servers), "n0.a.test", oracle_context("198.51.100.7", "de", 0.0))
    assert isinstance(outcome, ResolutionError) == (hops > 15)


def test_reference_agrees_on_a_fixed_estate_of_every_shape():
    spec = [
        (0, ("cname", [1, 5], 10)),        # n0: two CNAMEs, first followed
        (1, ("country", 2, 6, 3)),         # n1 (deep.a.test, server Two): by country
        (2, ("gslb", 5, 3, 7)),            # n2: client-hashed A records
        (3, ("cname+a", 0, 2, 40)),        # n3 (tie.test): A beside a CNAME
        (0, ("cname", [4], 0)),            # n4: loops onto itself, TTL 0
        (2, ("empty",)),                   # n5: bound, answers nothing
        (4, ("a", 1, 10)),                 # n6: nobody serves it
        (1, ("unbound",)),                 # n7: covered, not bound
        (3, ("cname", [7], 1000)),         # n8 -> unbound name
        (2, ("cname", [6], 10)),           # n9 -> unserved name
    ]
    ops = [
        (advance, target, singly)
        for advance in (0.0, 1.0, 3.0, 7.0, 40.0)
        for target in range(len(spec))
        for singly in (False, True)
    ]
    for with_map in (False, True):
        run_against_reference(spec, ops, (True, False), with_map, traced=with_map)


def _oracle_strategies():
    ttls = st.sampled_from([0, 3, 10, 40, 1000])
    target = st.integers(0, 40)

    def binding(index):
        onward = st.tuples(st.just("cname"), st.just([index + 1]), ttls)
        return st.one_of(
            onward, onward,                 # biased towards long chains
            st.tuples(st.just("cname"), st.lists(target, min_size=1, max_size=2), ttls),
            st.tuples(st.just("a"), st.integers(1, 3), ttls),
            st.tuples(st.just("cname+a"), target, st.integers(1, 2), ttls),
            st.tuples(st.just("empty")),
            st.tuples(st.just("unbound")),
            st.tuples(st.just("country"), target, target, ttls),
            st.tuples(st.just("gslb"), st.integers(0, 5), st.integers(1, 3), ttls),
        )

    zone = st.sampled_from([0, 0, 1, 2, 2, 3, 4])
    spec = st.integers(2, 19).flatmap(
        lambda size: st.tuples(*[st.tuples(zone, binding(i)) for i in range(size)])
    )
    skew = st.sampled_from([0.0, 0.0, 0.0, 1.0, 3.0, 7.0, 10.0])
    ops = st.lists(
        st.tuples(
            st.sampled_from([0.0, 1.0, 3.0, 7.0, 10.0, 40.0, 300.0]),
            st.sampled_from([0, 0, 0, 1, 2, 5, 9]),
            st.booleans(),
            # Per-client time offsets: one call mixes ``now`` values.
            st.tuples(*[skew] * len(ORACLE_CLIENTS)),
        ),
        min_size=1,
        max_size=8,
    )
    return spec, ops


_SPEC, _OPS = _oracle_strategies()


@settings(max_examples=200, deadline=None)
@given(
    spec=_SPEC,
    ops=_OPS,
    caches=st.tuples(st.booleans(), st.booleans()),
    with_map=st.booleans(),
    traced=st.booleans(),
)
def test_reference_agrees_on_generated_estates(spec, ops, caches, with_map, traced):
    run_against_reference(list(spec), ops, caches, with_map, traced)
