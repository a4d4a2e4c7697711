"""Catchment maps: which anycast site each client population reaches.

A catchment map is a pure function of the candidate announcements and
the client populations.  Selection follows BGP practice scaled to the
model: the effective AS-path length a client's upstream sees is the
announced path plus the inter-region transit hops between the client
and the announcing site, shortest path wins, and remaining ties break
on a stable BLAKE2b digest of (site, client prefix) — never on
insertion order, ``id()`` or RNG state, so maps are bit-identical
across processes, workers and runs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

from ..net.geo import great_circle_km
from ..net.ipv4 import IPv4Address, IPv4Prefix
from ..net.trie import PrefixTrie

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..isp.bgp import BgpRoute
    from .plane import AnycastSite, ClientGroup

__all__ = ["CatchmentMap", "build_catchment_map", "transit_hops"]


def transit_hops(client_region: str, site_region: str) -> int:
    """Extra transit ASes between a client's region and a site's region.

    Same mapping region: the announcement arrives over a local peering
    (no extra hops).  Different regions: one intercontinental transit
    hop.  This is what makes catchments *mostly* geographic while the
    tie-break keeps them imperfect, as anycast catchments are.
    """
    return 0 if client_region == site_region else 1


def _tiebreak(site_id: str, prefix: IPv4Prefix) -> bytes:
    """Stable per-(site, client) digest breaking equal-length paths."""
    text = f"catchment|{site_id}|{prefix}"
    return hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()


class CatchmentMap:
    """An immutable client-prefix -> anycast-site assignment.

    Lookup is longest-prefix-match over the client populations, so the
    map answers for any concrete client address inside a known
    population.  ``signature`` is a content digest used for cheap
    equality and golden snapshots.
    """

    def __init__(self, assignments: Iterable[tuple["ClientGroup", str]]) -> None:
        self._assignments: tuple[tuple["ClientGroup", str], ...] = tuple(assignments)
        self._trie: PrefixTrie[str] = PrefixTrie()
        for group, site_id in self._assignments:
            self._trie.insert(group.prefix, site_id)

    @property
    def assignments(self) -> tuple[tuple["ClientGroup", str], ...]:
        """Every ``(client group, site id)`` pair, in group order."""
        return self._assignments

    def __len__(self) -> int:
        return len(self._assignments)

    def site_of(self, address: IPv4Address) -> Optional[str]:
        """The site serving ``address``, or ``None`` if unknown."""
        return self._trie.lookup(address)

    def site_of_group(self, name: str) -> Optional[str]:
        """The site serving the client group called ``name``."""
        for group, site_id in self._assignments:
            if group.name == name:
                return site_id
        return None

    def share_by_site(self) -> dict[str, float]:
        """Share of client groups each site captures."""
        if not self._assignments:
            return {}
        share = 1.0 / len(self._assignments)
        shares: dict[str, float] = {}
        for _group, site_id in self._assignments:
            shares[site_id] = shares.get(site_id, 0.0) + share
        return {site: shares[site] for site in sorted(shares)}

    def diff(self, other: "CatchmentMap") -> tuple[str, ...]:
        """Names of client groups mapped to a different site in ``other``."""
        theirs = {group.name: site for group, site in other._assignments}
        return tuple(
            group.name
            for group, site_id in self._assignments
            if theirs.get(group.name, site_id) != site_id
        )

    @property
    def signature(self) -> str:
        """A stable content digest of the full assignment."""
        digest = hashlib.blake2b(digest_size=8)
        for group, site_id in self._assignments:
            digest.update(f"{group.name}|{group.prefix}|{site_id}\n".encode("utf-8"))
        return digest.hexdigest()

    def to_json_dict(self) -> dict:
        """Canonical JSON form (sorted keys, rounded shares) for goldens."""
        return {
            "assignments": {
                group.name: site_id for group, site_id in sorted(
                    self._assignments, key=lambda pair: pair[0].name
                )
            },
            "share_by_site": {
                site: round(share, 6)
                for site, share in self.share_by_site().items()
            },
            "signature": self.signature,
        }


def build_catchment_map(
    groups: Iterable["ClientGroup"],
    candidates: Iterable["BgpRoute"],
    sites_by_link: dict[str, "AnycastSite"],
) -> CatchmentMap:
    """Run per-client best-path selection over the announced candidates.

    ``candidates`` are the live announcements of the shared VIP prefix
    (one per announcing site, path prepends already applied);
    ``sites_by_link`` resolves a route's ingress link back to the
    announcing site.  For each client group the winner minimises
    ``(len(as_path) + transit_hops, tiebreak digest)``.
    """
    routes = list(candidates)
    assignments: list[tuple["ClientGroup", str]] = []
    for group in groups:
        best_key: Optional[tuple[int, bytes]] = None
        best_site: Optional[str] = None
        for route in routes:
            site = sites_by_link.get(route.link_ids[0])
            if site is None:
                continue
            key = (
                len(route.as_path) + transit_hops(group.region, site.region),
                _tiebreak(site.site_id, group.prefix),
            )
            if best_key is None or key < best_key:
                best_key = key
                best_site = site.site_id
        if best_site is not None:
            assignments.append((group, best_site))
    return CatchmentMap(assignments)


def mean_mapping_distance_km(
    catchment: CatchmentMap, sites: dict[str, "AnycastSite"]
) -> float:
    """Mean client-group -> catchment-site distance."""
    count = 0
    total_km = 0.0
    for group, site_id in catchment.assignments:
        site = sites.get(site_id)
        if site is None:
            continue
        count += 1
        total_km += great_circle_km(group.coordinates, site.coordinates)
    return total_km / count if count else 0.0


def mean_nearest_distance_km(
    catchment: CatchmentMap, sites: dict[str, "AnycastSite"]
) -> float:
    """Mean client-group -> *nearest* site distance (the DNS ideal).

    DNS steering maps a client to the geographically best site; the
    delta between this and :func:`mean_mapping_distance_km` is the
    mapping-quality price of anycast's topology-driven catchments.
    """
    if not sites:
        return 0.0
    total_km = 0.0
    for group, _ in catchment.assignments:
        total_km += min(
            great_circle_km(group.coordinates, site.coordinates)
            for site in sites.values()
        )
    count = len(catchment.assignments)
    return total_km / count if count else 0.0
