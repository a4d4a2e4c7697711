"""The ISP's BGP view: candidate routes with origin AS and ingress links.

Section 5.2 reports ~60 million BGP routes across ~300 sessions; the
reproduction keeps the same *queryable facts* at laptop scale: for any
source address, the originating AS (the paper's *Source AS*) and the
set of peering links the prefix is reachable over (which fixes the
*handover AS*).

The table holds every announced candidate per prefix, not just the
post-selection winner, and the decision process (shortest AS path, then
a stable deterministic tie-break) runs over the full candidate set.
For prefixes with a single announcement the behaviour is identical to a
best-route table.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterator, Optional

from ..net.asys import ASN
from ..net.ipv4 import IPv4Address, IPv4Prefix
from ..net.trie import PrefixTrie

__all__ = ["BgpRoute", "BgpRib", "route_preference"]


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


def _route_digest(route: BgpRoute) -> bytes:
    """A stable content digest used to break best-path ties."""
    text = "|".join(
        [
            str(route.prefix),
            ".".join(str(asn.number) for asn in route.as_path),
            ",".join(route.link_ids),
        ]
    )
    return hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()


def route_preference(route: BgpRoute) -> tuple[int, bytes]:
    """Best-path sort key: shortest AS path, then stable BLAKE2b tie-break.

    Lower sorts better.  The tie-break depends only on route content,
    never on insertion order or ``id()``, so selection is bit-identical
    across processes and runs.
    """
    return (len(route.as_path), _route_digest(route))


class BgpRib:
    """Longest-prefix-match table of announced candidate routes.

    Each prefix maps to a deterministic candidate set; :meth:`lookup`
    applies best-path selection (shortest AS path, stable tie-break)
    over the candidates of the longest matching prefix.  Installing a
    second distinct route for a prefix *adds a candidate* — it no
    longer silently replaces the previous announcement.
    """

    #: Distinct addresses the longest-prefix memo holds before it is
    #: emptied and refilled.  A run asks about a few hundred cache
    #: addresses; the bound only matters to a caller sweeping an
    #: address range, and keeps it to a few MB.
    LPM_MEMO_BOUND = 32768

    def __init__(self) -> None:
        self._trie: PrefixTrie[tuple[BgpRoute, ...]] = PrefixTrie()
        # address value -> lookup_all() result.  Traffic generation and
        # flow classification ask about the same few hundred sources
        # hundreds of thousands of times; every install that changes
        # the table empties the memo, so an answer never outlives the
        # table it was computed from.
        self._lpm_memo: dict[int, tuple[BgpRoute, ...]] = {}
        #: Counts the changes to the table.  Whoever derives state from
        #: lookups (the engine's route plans) keeps the epoch it read
        #: beside it and rebuilds when the two differ.
        self.epoch = 0

    def install(self, route: BgpRoute) -> None:
        """Announce ``route``, adding it to its prefix's candidate set.

        Re-announcing an identical route is a no-op; a route that
        differs in AS path or ingress links joins the candidate set in
        preference order.
        """
        existing = self._trie.get(route.prefix) or ()
        if route in existing:
            return
        candidates = tuple(sorted(existing + (route,), key=route_preference))
        self._trie.insert(route.prefix, candidates)
        self._lpm_memo.clear()
        self.epoch += 1

    def lookup(self, address: IPv4Address) -> Optional[BgpRoute]:
        """Best route covering ``address``, or ``None``."""
        best = self.lookup_all(address)
        return best[0] if best else None

    def lookup_all(self, address: IPv4Address) -> tuple[BgpRoute, ...]:
        """All candidates of the longest matching prefix, best first.

        A prefix with an empty candidate set is transparent: the
        next-longest covering prefix answers.
        """
        memo = self._lpm_memo
        found = memo.get(address.value)
        if found is None:
            found = self._walk(address)
            if len(memo) >= self.LPM_MEMO_BOUND:
                memo.clear()
            memo[address.value] = found
        return found

    def _walk(self, address: IPv4Address) -> tuple[BgpRoute, ...]:
        """The memo-free trie walk behind :meth:`lookup_all`."""
        # Walk covering prefixes longest-first: take the longest match,
        # and if its candidate set is empty retry strictly above it.
        length = 33
        while length > 0:
            found = self._lookup_above(address, length)
            if found is None:
                break
            match_prefix, candidates = found
            if candidates:
                return candidates
            length = match_prefix.length
        return ()

    def _lookup_above(
        self, address: IPv4Address, below: int
    ) -> Optional[tuple[IPv4Prefix, tuple[BgpRoute, ...]]]:
        """Longest match for ``address`` strictly shorter than ``below``."""
        return self._trie.lookup_prefix(address, max_length=below - 1)

    def origin_asn(self, address: IPv4Address) -> Optional[ASN]:
        """Shortcut: the Source AS for ``address``."""
        route = self.lookup(address)
        return route.origin_asn if route is not None else None

    def routes(self) -> Iterator[BgpRoute]:
        """All announced routes (every candidate of every prefix)."""
        for _, candidates in self._trie.items():
            yield from candidates

    @property
    def route_count(self) -> int:
        """Number of prefixes with at least one live candidate."""
        return sum(1 for _, candidates in self._trie.items() if candidates)

    def __len__(self) -> int:
        return self.route_count
