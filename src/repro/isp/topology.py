"""The Tier-1 European eyeball ISP's border topology.

Section 5.2: the authors measured on *all* border routers of the ISP,
knowing every active peering link and its *handover AS* (the direct
neighbour delivering the traffic), and verified that internal cache
links count as direct connections to the CDN controlling the cache.

:class:`EyeballIsp` models exactly that observable surface: border
routers, peering links with capacities and neighbour ASs, plus the
customer address space the eyeballs live in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ..net.asys import ASN
from ..net.ipv4 import IPv4Prefix

__all__ = ["PeeringLink", "EyeballIsp"]


@dataclass(frozen=True)
class PeeringLink:
    """One peering link on a border router.

    ``is_cache_link`` marks internal CDN-cache links, which the paper
    treats "as direct connections to the CDN controlling the cache" —
    their handover AS is the CDN's AS even though the cache sits inside
    the ISP.
    """

    link_id: str
    router: str
    neighbor_asn: ASN
    capacity_gbps: float
    is_cache_link: bool = False

    def __post_init__(self) -> None:
        if self.capacity_gbps <= 0:
            raise ValueError(f"{self.link_id}: capacity must be positive")

    def capacity_bytes(self, seconds: float) -> float:
        """Bytes the link can carry in ``seconds``."""
        return self.capacity_gbps / 8.0 * 1e9 * seconds

    def __str__(self) -> str:
        return f"{self.link_id} ({self.router} <-> {self.neighbor_asn}, {self.capacity_gbps} G)"


class EyeballIsp:
    """The measured ISP: identity, customer space and peering surface.

    The link set is fixed at construction; link ids must be unique.
    """

    def __init__(
        self,
        asn: ASN,
        name: str,
        customer_prefix: IPv4Prefix,
        links: Iterable[PeeringLink],
    ) -> None:
        self.asn = asn
        self.name = name
        self.customer_prefix = customer_prefix
        self._links: dict[str, PeeringLink] = {}
        self._by_neighbor: dict[ASN, list[PeeringLink]] = {}
        for link in links:
            if link.link_id in self._links:
                raise ValueError(f"duplicate link id {link.link_id!r}")
            self._links[link.link_id] = link
            self._by_neighbor.setdefault(link.neighbor_asn, []).append(link)

    def link(self, link_id: str) -> PeeringLink:
        """The link with ``link_id``; raises ``KeyError`` if unknown."""
        return self._links[link_id]

    def links_for(self, neighbor: ASN) -> tuple[PeeringLink, ...]:
        """Every link to ``neighbor`` (empty if not a direct peer)."""
        return tuple(self._by_neighbor.get(neighbor, ()))

    def is_direct_peer(self, asn: ASN) -> bool:
        """Whether ``asn`` hands traffic to the ISP directly."""
        return asn in self._by_neighbor

    def handover_for(self, link_id: str) -> ASN:
        """The handover AS of a link."""
        return self.link(link_id).neighbor_asn

    def __iter__(self) -> Iterator[PeeringLink]:
        return iter(self._links.values())

    def __len__(self) -> int:
        return len(self._links)

    def __str__(self) -> str:
        return f"EyeballIsp({self.name}, {self.asn}, {len(self)} links)"
