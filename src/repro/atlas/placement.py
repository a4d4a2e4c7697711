"""Probe placement.

The paper uses two probe sets: ~800 probes worldwide and ~400 probes
inside the measured European eyeball ISP.  RIPE Atlas coverage is
notoriously Europe-heavy; :data:`ATLAS_CONTINENT_WEIGHTS` encodes that
skew (it is also why the paper does not study India/China further:
"the density of RIPE probes in these regions is low").

Placement is deterministic given a seed, so every analysis run sees the
same vantage points.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional

from ..dns.zone import AuthoritativeServer
from ..net.asys import ASN
from ..net.geo import Continent
from ..net.ipv4 import IPv4Address, IPv4Prefix
from ..net.locode import Location, LocodeDatabase
from .probe import AtlasProbe

__all__ = ["ATLAS_CONTINENT_WEIGHTS", "place_global_probes", "place_isp_probes"]

# Approximate share of RIPE Atlas probes per continent (2017).
ATLAS_CONTINENT_WEIGHTS: dict[Continent, float] = {
    Continent.EUROPE: 0.55,
    Continent.NORTH_AMERICA: 0.22,
    Continent.ASIA: 0.10,
    Continent.OCEANIA: 0.05,
    Continent.SOUTH_AMERICA: 0.04,
    Continent.AFRICA: 0.04,
}

# Synthetic probe address space (RFC 2544 benchmarking range).
_GLOBAL_PROBE_PREFIX = IPv4Prefix.parse("198.18.0.0/15")
# Placement seeds (the global one is the RIPE Atlas measurement id) and
# the first probe id of each set.
_GLOBAL_SEED = 9299652
_GLOBAL_FIRST_PROBE_ID = 1000
_ISP_SEED = 929965200
_ISP_FIRST_PROBE_ID = 20000


def _eyeball_asn(rng: random.Random) -> ASN:
    """A synthetic eyeball-ISP ASN (private-use 64512-65000 range)."""
    return ASN(rng.randint(64520, 64999))


def place_global_probes(
    servers: Iterable[AuthoritativeServer],
    count: int = 800,
    locations: Optional[LocodeDatabase] = None,
) -> list[AtlasProbe]:
    """Place ``count`` probes worldwide with Atlas-like continent skew."""
    if count <= 0:
        raise ValueError("count must be positive")
    db = locations if locations is not None else LocodeDatabase.builtin()
    continent_weights = ATLAS_CONTINENT_WEIGHTS
    rng = random.Random(_GLOBAL_SEED)
    server_list = list(servers)

    cities_by_continent: dict[Continent, list[Location]] = {}
    for continent in continent_weights:
        cities = list(db.on_continent(continent))
        if not cities:
            raise ValueError(f"no locations available on {continent}")
        cities_by_continent[continent] = cities

    continents = list(continent_weights)
    weight_values = [continent_weights[c] for c in continents]
    probes = []
    for index in range(count):
        continent = rng.choices(continents, weights=weight_values, k=1)[0]
        city = rng.choice(cities_by_continent[continent])
        address = _GLOBAL_PROBE_PREFIX.host(index + 1)
        probes.append(
            AtlasProbe.create(
                probe_id=_GLOBAL_FIRST_PROBE_ID + index,
                address=address,
                asn=_eyeball_asn(rng),
                location=city,
                servers=server_list,
            )
        )
    return probes


def place_isp_probes(
    servers: Iterable[AuthoritativeServer],
    isp_asn: ASN,
    customer_prefix: IPv4Prefix,
    count: int = 400,
    country: str = "de",
    locations: Optional[LocodeDatabase] = None,
) -> list[AtlasProbe]:
    """Place ``count`` probes inside the measured eyeball ISP.

    All probes share the ISP's AS and draw addresses from its customer
    prefix; they spread over the ISP's home-country metros.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    if count >= customer_prefix.size - 1:
        raise ValueError("customer prefix too small for probe count")
    db = locations if locations is not None else LocodeDatabase.builtin()
    cities = list(db.in_country(country))
    if not cities:
        raise ValueError(f"no locations in country {country!r}")
    rng = random.Random(_ISP_SEED)
    server_list = list(servers)
    probes = []
    for index in range(count):
        probes.append(
            AtlasProbe.create(
                probe_id=_ISP_FIRST_PROBE_ID + index,
                address=customer_prefix.host(index + 1),
                asn=isp_asn,
                location=rng.choice(cities),
                servers=server_list,
            )
        )
    return probes
