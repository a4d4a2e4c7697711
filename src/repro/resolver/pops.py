"""Public-resolver frontend POPs.

A large public resolver is anycast: the client's query lands at the
nearest frontend POP, and it is the *POP* that talks to authoritative
servers.  Without ECS the Meta-CDN therefore steers the client to
wherever the POP sits; with ECS it sees a truncated client prefix.
Each POP runs one shared cache for everyone it fronts.

POP anchors live inside the serving layer's CGNAT vantage blocks
(:data:`~repro.serve.clients.DEFAULT_VANTAGES`), so a live query a POP
sends upstream *without* ECS still maps to the POP's own geography
through the same :class:`~repro.serve.clients.ClientDirectory` the
authoritative server consults — the simulated and socket-level planes
agree on what an ECS-off public resolver looks like.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..dns.query import QueryContext
from ..net.geo import Continent, Coordinates, great_circle_km
from ..net.ipv4 import IPv4Address

__all__ = ["ResolverPop", "DEFAULT_POPS", "POP_CACHE_CAPACITY", "nearest_pop"]


@dataclass(frozen=True)
class ResolverPop:
    """One public-resolver frontend: anchor address plus geography."""

    pop_id: str
    anchor: IPv4Address
    country: str  # ISO 3166-1 alpha-2, lowercase
    continent: Continent
    coordinates: Coordinates

    def context(self, now: float = 0.0) -> QueryContext:
        """The query context an ECS-off upstream query presents.

        The authoritative chain sees the POP, not the client — the
        mapping inaccuracy the analysis plane quantifies.
        """
        return QueryContext(
            client=self.anchor,
            coordinates=self.coordinates,
            continent=self.continent,
            country=self.country,
            now=now,
        )


def _pop(pop_id, anchor, country, continent, lat, lon) -> ResolverPop:
    return ResolverPop(
        pop_id=pop_id,
        anchor=IPv4Address.parse(anchor),
        country=country,
        continent=continent,
        coordinates=Coordinates(lat, lon),
    )


# A 2017-plausible public-resolver footprint: dense where the big
# anycast resolvers actually were, absent from Africa (Johannesburg
# clients cross to Europe — a real and measured mis-mapping source).
# Anchors sit in the ``.255.x`` tail of the matching serve vantage
# block, clear of the load generator's low client offsets.
DEFAULT_POPS: tuple[ResolverPop, ...] = (
    _pop("pop-fra", "100.64.255.1", "de", Continent.EUROPE, 50.11, 8.68),
    _pop("pop-lon", "100.65.255.1", "gb", Continent.EUROPE, 51.51, -0.13),
    _pop("pop-nyc", "100.67.255.1", "us", Continent.NORTH_AMERICA, 40.71, -74.01),
    _pop("pop-sjc", "100.68.255.1", "us", Continent.NORTH_AMERICA, 37.34, -121.89),
    _pop("pop-tyo", "100.70.255.1", "jp", Continent.ASIA, 35.68, 139.69),
    _pop("pop-sin", "100.71.255.1", "sg", Continent.ASIA, 1.35, 103.82),
    _pop("pop-syd", "100.72.255.1", "au", Continent.OCEANIA, -33.87, 151.21),
    _pop("pop-gru", "100.73.255.1", "br", Continent.SOUTH_AMERICA, -23.55, -46.63),
)

# Live entries per shared POP cache, in the replay's plane and the live
# front alike.
POP_CACHE_CAPACITY = 4096


def nearest_pop(
    origin: Coordinates, pops: Sequence[ResolverPop] = DEFAULT_POPS
) -> ResolverPop:
    """The POP an anycast query from ``origin`` lands at.

    Great-circle proximity with a first-seen tie-break, mirroring
    :func:`~repro.net.geo.nearest` — deterministic for identical POP
    tables, which every scenario replica rebuilds from config alone.
    """
    if not pops:
        raise ValueError("at least one POP is required")
    best = pops[0]
    best_km = great_circle_km(origin, best.coordinates)
    for pop in pops[1:]:
        km = great_circle_km(origin, pop.coordinates)
        if km < best_km:
            best = pop
            best_km = km
    return best
