"""Property tests: RIB lookup agrees with a brute-force LPM oracle.

``BgpRib`` is built whole from its routes, one per prefix, over the
trie's longest-prefix match.  The oracle reimplements the lookup in the
obvious O(n) way — scan every route, keep the longest prefix containing
the address — over randomized tables with distinct prefixes; the
strategies force /0 default routes and /32 host routes to appear so
both length edges are exercised.  Building the table from a repeated
identical route is a no-op; a second, different route for a prefix is
refused.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.isp.bgp import BgpRib, BgpRoute  # noqa: E402
from repro.net.asys import ASN  # noqa: E402
from repro.net.ipv4 import IPv4Address, IPv4Prefix  # noqa: E402

addresses = st.integers(min_value=0, max_value=2**32 - 1).map(IPv4Address)

# Force the edges: /0 (default route) and /32 (host route) appear often.
lengths = st.one_of(
    st.sampled_from([0, 32]),
    st.integers(min_value=0, max_value=32),
)


@st.composite
def prefixes(draw):
    length = draw(lengths)
    value = draw(st.integers(min_value=0, max_value=2**32 - 1))
    mask = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF if length else 0
    return IPv4Prefix(IPv4Address(value & mask), length)


@st.composite
def routes(draw, prefix=None):
    if prefix is None:
        prefix = draw(prefixes())
    path = tuple(
        ASN(draw(st.integers(min_value=1, max_value=65535)))
        for _ in range(draw(st.integers(min_value=1, max_value=4)))
    )
    link = f"link-{draw(st.integers(min_value=0, max_value=7))}"
    return BgpRoute(prefix, path, (link,))


# A table: distinct prefixes, one route each.
tables = st.lists(routes(), min_size=0, max_size=40, unique_by=lambda r: r.prefix)


def oracle_lookup(table, address):
    """The route of the longest prefix containing ``address``."""
    best = None
    for route in table:
        if route.prefix.contains(address):
            if best is None or route.prefix.length > best.prefix.length:
                best = route
    return best


@settings(max_examples=200, deadline=None)
@given(table=tables, queries=st.lists(addresses, min_size=1, max_size=8), data=st.data())
def test_rib_lookup_matches_oracle(table, queries, data):
    rib = BgpRib(table)
    assert len(rib) == len(table)
    # Queries inside the announced prefixes, not only random addresses.
    queries += [route.prefix.network for route in table]
    for address in queries:
        expected = oracle_lookup(table, address)
        assert rib.lookup(address) == expected
        assert rib.origin_asn(address) == (
            expected.origin_asn if expected is not None else None
        )
    # Each route given twice, in any order: the repeats are no-ops.
    repeated = data.draw(st.permutations(table + table))
    assert [BgpRib(repeated).lookup(a) for a in queries] == [rib.lookup(a) for a in queries]


@settings(max_examples=200, deadline=None)
@given(table=tables.filter(bool), data=st.data())
def test_a_second_different_route_for_a_prefix_is_refused(table, data):
    held = data.draw(st.sampled_from(table))
    other = data.draw(routes(prefix=held.prefix).filter(lambda r: r != held))
    order = data.draw(st.permutations(table + [other]))
    with pytest.raises(ValueError, match=f"prefix {held.prefix} already holds"):
        BgpRib(order)


@settings(max_examples=100, deadline=None)
@given(query=addresses, path_len=st.integers(min_value=1, max_value=4))
def test_default_and_host_routes(query, path_len):
    """/0 answers everything; a /32 beats it only for its one address."""
    default = BgpRoute(
        IPv4Prefix.parse("0.0.0.0/0"), (ASN(65000),) * path_len, ("default",)
    )
    host = BgpRoute(
        IPv4Prefix.containing(query, 32), (ASN(65001),), ("host",)
    )
    assert BgpRib([default]).lookup(query) == default
    rib = BgpRib([default, host])
    assert rib.lookup(query) == host
    other = IPv4Address((int(query) + 1) % 2**32)
    assert rib.lookup(other) == default
