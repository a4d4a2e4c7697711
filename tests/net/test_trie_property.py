"""Property test: trie LPM agrees with a brute-force oracle.

The binary trie in ``repro.net.trie`` backs both the RIB lookups and
the ISP classifier; longest-prefix match is its entire contract, so we
check it against the obvious O(n) implementation — scan every inserted
prefix, keep the longest that contains the address — over randomized
prefix sets and query addresses.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.net.ipv4 import IPv4Address, IPv4Prefix  # noqa: E402
from repro.net.trie import PrefixTrie  # noqa: E402

addresses = st.integers(min_value=0, max_value=2**32 - 1).map(IPv4Address)


@st.composite
def prefixes(draw):
    length = draw(st.integers(min_value=0, max_value=32))
    value = draw(st.integers(min_value=0, max_value=2**32 - 1))
    # Zero the host bits so the prefix is canonical.
    mask = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF if length else 0
    return IPv4Prefix(IPv4Address(value & mask), length)


def oracle_lookup(entries, address):
    """Brute force: longest inserted prefix containing ``address``."""
    best = None
    for prefix, value in entries.items():
        if prefix.contains(address):
            if best is None or prefix.length > best[0].length:
                best = (prefix, value)
    return best


@settings(max_examples=200, deadline=None)
@given(
    prefix_list=st.lists(prefixes(), min_size=0, max_size=32),
    queries=st.lists(addresses, min_size=1, max_size=16),
)
def test_lpm_matches_brute_force(prefix_list, queries):
    trie = PrefixTrie()
    entries = {}
    for order, prefix in enumerate(prefix_list):
        trie.insert(prefix, order)
        entries[prefix] = order  # last insert wins, same as the trie

    for address in queries:
        expected = oracle_lookup(entries, address)
        assert trie.lookup(address) == (
            expected[1] if expected is not None else None
        )


@settings(max_examples=200, deadline=None)
@given(prefix_list=st.lists(prefixes(), min_size=1, max_size=32))
def test_inserted_prefixes_are_retrievable(prefix_list):
    trie = PrefixTrie()
    entries = {}
    for order, prefix in enumerate(prefix_list):
        trie.insert(prefix, order)
        entries[prefix] = order
    # Exact-match get returns what was inserted, for every entry.
    for prefix, value in entries.items():
        assert trie.get(prefix) == value
    # And the trie's own enumeration agrees with the oracle's book.
    assert dict(trie.items()) == entries


@settings(max_examples=100, deadline=None)
@given(prefix=prefixes(), query=addresses)
def test_single_prefix_containment(prefix, query):
    trie = PrefixTrie()
    trie.insert(prefix, "v")
    if prefix.contains(query):
        assert trie.lookup(query) == "v"
    else:
        assert trie.lookup(query) is None
