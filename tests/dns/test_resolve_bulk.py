"""``resolve()`` is the one-client case of ``resolve_bulk()``.

Both run the same chase loop, so every observable must agree: steps
(with their ``from_cache`` flags), rcodes, the errors a chase dies with
and the per-resolver cache counters — across TTL boundaries, where the
cached and the freshly computed hop take different paths.
"""

import pytest

from repro.dns.policies import CnamePolicy, GslbAddressPolicy
from repro.dns.query import QueryContext, RCode
from repro.dns.resolver import (
    RecursiveResolver,
    Resolution,
    ResolutionError,
    ServerMap,
    resolve_bulk,
)
from repro.dns.zone import AuthoritativeServer, Zone
from repro.net.geo import Continent, Coordinates
from repro.net.ipv4 import IPv4Address

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
    pool = [IPv4Address.parse(f"17.253.0.{i}") for i in range(1, 7)]
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
