"""Public-resolver frontend POPs, and who resolves through them.

A large public resolver is anycast: the client's query lands at the
nearest frontend POP, and it is the *POP* that talks to authoritative
servers.  Without ECS the Meta-CDN therefore steers the client to
wherever the POP sits; with ECS it sees a truncated client prefix.
Each POP runs one shared cache for everyone it fronts.

POP anchors live inside the serving layer's CGNAT vantage blocks
(:data:`~repro.serve.clients.DEFAULT_VANTAGES`), so a live query a POP
sends upstream *without* ECS still maps to the POP's own geography
through the same :class:`~repro.serve.clients.ClientDirectory` the
authoritative server consults.

The population rule lives here too: which resolver populations an edge
runs (:data:`POPULATIONS`), what it refuses (:func:`check_population`)
and which clients resolve through a POP (:func:`is_public_client`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dns.policies import stable_fraction
from ..net.geo import Continent, Coordinates, nearest
from ..net.ipv4 import IPv4Address

__all__ = [
    "DEFAULT_POPS",
    "POPULATIONS",
    "POP_CACHE_CAPACITY",
    "ResolverPop",
    "check_population",
    "is_public_client",
    "nearest_pop",
]

_ASSIGNMENT_SALT = "resolver-population"

# Who resolves for the clients: their own ISP-path resolvers, or a
# fixed share behind shared public-resolver POP caches (share 1.0 puts
# every client there).
POPULATIONS = ("isp", "mixed")


def is_public_client(key, share: float) -> bool:
    """Whether client ``key`` resolves through a public resolver: a
    stable draw per key under ``share``, the same in every process."""
    return stable_fraction(_ASSIGNMENT_SALT, key) < share


def check_population(population: str, share: float, scope: int) -> None:
    """Reject a resolver population, public share or ECS scope that the
    live front does not run."""
    if population not in POPULATIONS:
        raise ValueError(
            f"unknown resolver population {population!r} "
            f"(valid: {', '.join(POPULATIONS)})"
        )
    if not 0.0 <= share <= 1.0:
        raise ValueError("public_resolver_share must be within [0, 1]")
    if not 0 <= scope <= 32:
        raise ValueError("public_resolver_scope must be within [0, 32]")


@dataclass(frozen=True)
class ResolverPop:
    """One public-resolver frontend: anchor address plus geography."""

    pop_id: str
    anchor: IPv4Address
    country: str  # ISO 3166-1 alpha-2, lowercase
    continent: Continent
    coordinates: Coordinates


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

# Live entries per shared POP cache of the live front.
POP_CACHE_CAPACITY = 4096


def nearest_pop(origin: Coordinates) -> ResolverPop:
    """The POP an anycast query from ``origin`` lands at: the nearest by
    great circle, the first seen on a tie (:func:`~repro.net.geo.nearest`)."""
    closest = nearest(origin, [pop.coordinates for pop in DEFAULT_POPS])
    return next(pop for pop in DEFAULT_POPS if pop.coordinates == closest)
