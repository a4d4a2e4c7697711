"""Tests for repro.net.trie (longest-prefix match)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.ipv4 import IPv4Address, IPv4Prefix
from repro.net.trie import PrefixTrie


@pytest.fixture
def apple_trie():
    trie = PrefixTrie()
    trie.insert(IPv4Prefix.parse("17.0.0.0/8"), "apple")
    trie.insert(IPv4Prefix.parse("17.253.0.0/16"), "apple-cdn")
    trie.insert(IPv4Prefix.parse("23.0.0.0/12"), "akamai")
    return trie


class TestPrefixTrie:
    def test_longest_prefix_wins(self, apple_trie):
        assert apple_trie.lookup(IPv4Address.parse("17.253.4.2")) == "apple-cdn"
        assert apple_trie.lookup(IPv4Address.parse("17.1.2.3")) == "apple"

    def test_miss_returns_none(self, apple_trie):
        assert apple_trie.lookup(IPv4Address.parse("8.8.8.8")) is None

    def test_len_counts_distinct_prefixes(self, apple_trie):
        assert len(apple_trie) == 3

    def test_replacing_value_does_not_grow(self, apple_trie):
        apple_trie.insert(IPv4Prefix.parse("17.0.0.0/8"), "apple-v2")
        assert len(apple_trie) == 3
        assert apple_trie.lookup(IPv4Address.parse("17.1.2.3")) == "apple-v2"

    def test_default_route(self):
        trie = PrefixTrie()
        trie.insert(IPv4Prefix.parse("0.0.0.0/0"), "default")
        trie.insert(IPv4Prefix.parse("10.0.0.0/8"), "private")
        assert trie.lookup(IPv4Address.parse("8.8.8.8")) == "default"
        assert trie.lookup(IPv4Address.parse("10.1.1.1")) == "private"

    def test_host_route(self):
        trie = PrefixTrie()
        trie.insert(IPv4Prefix.parse("203.0.113.7/32"), "host")
        assert trie.lookup(IPv4Address.parse("203.0.113.7")) == "host"
        assert trie.lookup(IPv4Address.parse("203.0.113.8")) is None

    def test_exact_get(self, apple_trie):
        assert apple_trie.get(IPv4Prefix.parse("17.0.0.0/8")) == "apple"
        assert apple_trie.get(IPv4Prefix.parse("17.0.0.0/9")) is None

    def test_items_round_trip(self, apple_trie):
        items = dict(apple_trie.items())
        assert items == {
            IPv4Prefix.parse("17.0.0.0/8"): "apple",
            IPv4Prefix.parse("17.253.0.0/16"): "apple-cdn",
            IPv4Prefix.parse("23.0.0.0/12"): "akamai",
        }

    def test_empty_trie(self):
        trie = PrefixTrie()
        assert len(trie) == 0
        assert trie.lookup(IPv4Address.parse("1.1.1.1")) is None
        assert list(trie.items()) == []

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=0xFFFFFFFF),
                st.integers(min_value=0, max_value=32),
            ),
            min_size=1,
            max_size=40,
        ),
        st.integers(min_value=0, max_value=0xFFFFFFFF),
    )
    def test_matches_linear_scan_property(self, entries, probe_value):
        """The trie must agree with a brute-force longest-prefix scan."""
        trie = PrefixTrie()
        table = {}
        for value, length in entries:
            prefix = IPv4Prefix.containing(IPv4Address(value), length)
            trie.insert(prefix, str(prefix))
            table[prefix] = str(prefix)
        probe = IPv4Address(probe_value)
        expected = None
        best_length = -1
        for prefix, tag in table.items():
            if prefix.contains(probe) and prefix.length > best_length:
                expected = tag
                best_length = prefix.length
        assert trie.lookup(probe) == expected

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=0xFFFFFFFF),
                st.integers(min_value=0, max_value=32),
            ),
            max_size=30,
        )
    )
    def test_items_returns_everything_inserted_property(self, entries):
        trie = PrefixTrie()
        expected = {}
        for value, length in entries:
            prefix = IPv4Prefix.containing(IPv4Address(value), length)
            trie.insert(prefix, value)
            expected[prefix] = value
        assert dict(trie.items()) == expected
        assert len(trie) == len(expected)
