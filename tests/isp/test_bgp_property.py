"""Property tests: RIB lookup agrees with a brute-force LPM oracle.

``BgpRib.lookup_all`` layers candidate sets per prefix over the trie's
longest-prefix match.  The oracle reimplements it in the obvious
O(n·m) way over randomized announcement histories; the strategies
force /0 default routes and /32 host routes to appear so both length
edges are exercised, along with ``max_length``-bounded
``PrefixTrie.lookup_prefix``.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.isp.bgp import BgpRib, BgpRoute, route_preference  # noqa: E402
from repro.net.asys import ASN  # noqa: E402
from repro.net.ipv4 import IPv4Address, IPv4Prefix  # noqa: E402
from repro.net.trie import PrefixTrie  # noqa: E402

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
def routes(draw):
    prefix = draw(prefixes())
    path = tuple(
        ASN(draw(st.integers(min_value=1, max_value=65535)))
        for _ in range(draw(st.integers(min_value=1, max_value=4)))
    )
    link = f"link-{draw(st.integers(min_value=0, max_value=7))}"
    return BgpRoute(prefix, path, (link,))


# An announcement history (a route may be announced twice: the RIB
# must treat the repeat as a no-op).
events = st.lists(routes(), min_size=0, max_size=40)


def oracle(history):
    """Replay the history into a dict of prefix -> set of live routes."""
    live: dict[IPv4Prefix, set] = {}
    for route in history:
        live.setdefault(route.prefix, set()).add(route)
    return live


def oracle_lookup_all(live, address):
    """The candidates of the longest covering prefix."""
    covering = sorted(
        (prefix for prefix in live if prefix.contains(address)),
        key=lambda p: p.length,
        reverse=True,
    )
    if not covering:
        return ()
    return tuple(sorted(live[covering[0]], key=route_preference))


@settings(max_examples=200, deadline=None)
@given(history=events, queries=st.lists(addresses, min_size=1, max_size=8))
def test_rib_lookup_matches_oracle(history, queries):
    rib = BgpRib()
    for route in history:
        rib.install(route)
    live = oracle(history)

    for address in queries:
        expected = oracle_lookup_all(live, address)
        assert rib.lookup_all(address) == expected
        assert rib.lookup(address) == (expected[0] if expected else None)

    # Aggregates agree with the oracle too.
    assert rib.route_count == len(live)
    assert sorted(map(str, rib.routes())) == sorted(
        str(r) for rts in live.values() for r in rts
    )


@st.composite
def interleaved_histories(draw):
    """Announce / lookup steps over a handful of addresses.

    Every prefix covers one of the queried addresses, so each
    announcement can change the answer to a lookup that was already
    asked (and memoised) — the case a stale memo entry would get wrong.
    """
    bases = draw(st.lists(addresses, min_size=1, max_size=3, unique=True))
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        base = draw(st.sampled_from(bases))
        action = draw(st.sampled_from(["announce", "lookup"]))
        if action == "lookup":
            steps.append((action, base))
            continue
        path = tuple(
            ASN(draw(st.integers(min_value=1, max_value=3)))
            for _ in range(draw(st.integers(min_value=1, max_value=2)))
        )
        prefix = IPv4Prefix.containing(base, draw(lengths))
        steps.append((action, BgpRoute(prefix, path, ("link-0",))))
    return bases, steps


@settings(max_examples=300, deadline=None)
@given(case=interleaved_histories())
def test_memoised_lookup_is_exact_under_interleaved_mutation(case):
    """``lookup_all`` between mutations equals the memo-free answer.

    The memo has no off switch, so the oracle is the brute-force LPM
    over the announced set plus the RIB's own memo-free trie walk: a
    longer prefix or a better candidate announced after a lookup
    answers the next one.
    """
    bases, steps = case
    rib = BgpRib()
    history = []
    for action, subject in steps:
        if action == "announce":
            rib.install(subject)
            history.append(subject)
        else:
            expected = oracle_lookup_all(oracle(history), subject)
            assert rib.lookup_all(subject) == expected
            assert rib.lookup_all(subject) == rib._walk(subject)
    live = oracle(history)
    for base in bases:
        assert rib.lookup_all(base) == oracle_lookup_all(live, base)


def test_lookup_memo_is_bounded():
    rib = BgpRib()
    rib.install(BgpRoute(IPv4Prefix.parse("0.0.0.0/0"), (ASN(65000),), ("default",)))
    for value in range(BgpRib.LPM_MEMO_BOUND + 10):
        rib.lookup_all(IPv4Address(value))
    assert len(rib._lpm_memo) <= BgpRib.LPM_MEMO_BOUND


@settings(max_examples=200, deadline=None)
@given(
    prefix_list=st.lists(prefixes(), min_size=0, max_size=24),
    query=addresses,
    max_length=st.integers(min_value=0, max_value=32),
)
def test_bounded_lookup_prefix_matches_oracle(prefix_list, query, max_length):
    trie = PrefixTrie()
    entries = {}
    for order, prefix in enumerate(prefix_list):
        trie.insert(prefix, order)
        entries[prefix] = order

    best = None
    for prefix, value in entries.items():
        if prefix.length <= max_length and prefix.contains(query):
            if best is None or prefix.length > best[0].length:
                best = (prefix, value)
    assert trie.lookup_prefix(query, max_length=max_length) == best
    # Unbounded lookup is the max_length=32 special case.
    assert trie.lookup_prefix(query) == trie.lookup_prefix(query, max_length=32)


@settings(max_examples=100, deadline=None)
@given(query=addresses, path_len=st.integers(min_value=1, max_value=4))
def test_default_and_host_routes(query, path_len):
    """/0 answers everything; a /32 beats it only for its one address."""
    rib = BgpRib()
    default = BgpRoute(
        IPv4Prefix.parse("0.0.0.0/0"), (ASN(65000),) * path_len, ("default",)
    )
    host = BgpRoute(
        IPv4Prefix.containing(query, 32), (ASN(65001),), ("host",)
    )
    rib.install(default)
    assert rib.lookup(query) == default
    rib.install(host)
    assert rib.lookup(query) == host
    other = IPv4Address((int(query) + 1) % 2**32)
    assert rib.lookup(other) == default
