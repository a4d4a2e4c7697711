"""Binary radix trie for longest-prefix matching.

The ISP substrate keeps ~tens of thousands of BGP routes (the paper's ISP
tracked ~60 million; we run scaled down) and classifies every Netflow
record by *source AS*, which requires longest-prefix match on the source
IP.  A bitwise radix trie gives O(32) lookups independent of table size.
"""

from __future__ import annotations

from typing import Generic, Iterator, Optional, TypeVar

from .ipv4 import IPv4Address, IPv4Prefix

__all__ = ["PrefixTrie"]

V = TypeVar("V")


class _Node(Generic[V]):
    __slots__ = ("zero", "one", "value", "has_value")

    def __init__(self) -> None:
        self.zero: Optional["_Node[V]"] = None
        self.one: Optional["_Node[V]"] = None
        self.value: Optional[V] = None
        self.has_value = False


class PrefixTrie(Generic[V]):
    """Maps IPv4 prefixes to values with longest-prefix-match lookup.

    >>> trie = PrefixTrie()
    >>> trie.insert(IPv4Prefix.parse("17.0.0.0/8"), "apple-coarse")
    >>> trie.insert(IPv4Prefix.parse("17.253.0.0/16"), "apple-cdn")
    >>> trie.lookup(IPv4Address.parse("17.253.4.2"))
    'apple-cdn'
    >>> trie.lookup(IPv4Address.parse("17.1.2.3"))
    'apple-coarse'
    """

    def __init__(self) -> None:
        self._root: _Node[V] = _Node()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def insert(self, prefix: IPv4Prefix, value: V) -> None:
        """Insert ``prefix`` -> ``value``, replacing any previous value."""
        node = self._root
        bits = prefix.network.value
        for depth in range(prefix.length):
            bit = (bits >> (31 - depth)) & 1
            if bit:
                if node.one is None:
                    node.one = _Node()
                node = node.one
            else:
                if node.zero is None:
                    node.zero = _Node()
                node = node.zero
        if not node.has_value:
            self._size += 1
        node.value = value
        node.has_value = True

    def lookup(self, address: IPv4Address) -> Optional[V]:
        """Longest-prefix-match value for ``address``, or ``None``."""
        node = self._root
        best: Optional[V] = node.value if node.has_value else None
        bits = address.value
        for depth in range(32):
            bit = (bits >> (31 - depth)) & 1
            node = node.one if bit else node.zero  # type: ignore[assignment]
            if node is None:
                break
            if node.has_value:
                best = node.value
        return best

    def get(self, prefix: IPv4Prefix) -> Optional[V]:
        """Exact-match value stored at ``prefix``, or ``None``."""
        node = self._root
        bits = prefix.network.value
        for depth in range(prefix.length):
            bit = (bits >> (31 - depth)) & 1
            node = node.one if bit else node.zero  # type: ignore[assignment]
            if node is None:
                return None
        return node.value if node.has_value else None

    def items(self) -> Iterator[tuple[IPv4Prefix, V]]:
        """Yield ``(prefix, value)`` pairs in depth-first order."""
        yield from _walk(self._root, 0, 0)


def _walk(node: _Node[V], bits: int, depth: int) -> Iterator[tuple[IPv4Prefix, V]]:
    if node.has_value:
        network = IPv4Address(bits << (32 - depth) if depth else 0)
        yield IPv4Prefix(network, depth), node.value  # type: ignore[misc]
    if node.zero is not None:
        yield from _walk(node.zero, bits << 1, depth + 1)
    if node.one is not None:
        yield from _walk(node.one, (bits << 1) | 1, depth + 1)
