"""The ISP's BGP view: one route per prefix, with origin AS and ingress links.

Section 5.2 reports ~60 million BGP routes across ~300 sessions; the
reproduction keeps the same *queryable facts* at laptop scale: for any
source address, the originating AS (the paper's *Source AS*) and the
set of peering links the prefix is reachable over (which fixes the
*handover AS*).

The table is the post-selection view the paper reads: one best route
per prefix, built whole and never changed afterwards, so whatever is
derived from a lookup (the engine's route plans, the classifier's
per-pair table) stays valid for the life of the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ..net.asys import ASN
from ..net.ipv4 import IPv4Address, IPv4Prefix
from ..net.trie import PrefixTrie

__all__ = ["BgpRoute", "BgpRib"]


@dataclass(frozen=True)
class BgpRoute:
    """One announced route.

    ``link_ids`` are the ingress links traffic from this prefix
    arrives over (multiple links to the same neighbour are balanced);
    the first AS in ``as_path`` is the handover AS, the last the
    origin (Source AS).
    """

    prefix: IPv4Prefix
    as_path: tuple[ASN, ...]
    link_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.as_path:
            raise ValueError("empty AS path")
        if not self.link_ids:
            raise ValueError(f"route {self.prefix} has no ingress links")

    @property
    def origin_asn(self) -> ASN:
        """The Source AS: who originates the prefix."""
        return self.as_path[-1]

    @property
    def neighbor_asn(self) -> ASN:
        """The handover AS: the direct neighbour announcing the route."""
        return self.as_path[0]

    def __str__(self) -> str:
        path = " ".join(str(asn.number) for asn in self.as_path)
        return f"{self.prefix} via [{path}] over {','.join(self.link_ids)}"


class BgpRib:
    """Longest-prefix-match table of routes, built whole.

    A prefix holds one route.  Repeating an identical route is a no-op;
    a second, different route for a prefix is refused with a
    ``ValueError`` naming the prefix — never a silent replacement.
    """

    def __init__(self, routes: Iterable[BgpRoute]) -> None:
        self._trie: PrefixTrie[BgpRoute] = PrefixTrie()
        for route in routes:
            held = self._trie.get(route.prefix)
            if held is None:
                self._trie.insert(route.prefix, route)
            elif held != route:
                raise ValueError(
                    f"prefix {route.prefix} already holds {held}; refusing {route}"
                )

    def lookup(self, address: IPv4Address) -> Optional[BgpRoute]:
        """The route of the longest prefix covering ``address``, or ``None``."""
        return self._trie.lookup(address)

    def origin_asn(self, address: IPv4Address) -> Optional[ASN]:
        """Shortcut: the Source AS for ``address``."""
        route = self._trie.lookup(address)
        return route.origin_asn if route is not None else None

    def __len__(self) -> int:
        return len(self._trie)
