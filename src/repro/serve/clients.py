"""Client vantages: the IP ⇄ geography contract of the serving layer.

Over real sockets the only thing a DNS query carries about its client is
an address (via EDNS Client Subnet, RFC 7871); the geo attributes that
drive the Figure 2 policies — country, continent, coordinates — must be
recovered from it.  A :class:`ClientDirectory` is that shared contract:
the load generator samples client addresses from its vantage blocks, and
the authoritative DNS server maps the ECS prefix back to a full
:class:`~repro.dns.query.QueryContext` through the same directory, so a
resolution over the wire sees exactly the context an in-memory
resolution would.

Vantage blocks live in the CGNAT range ``100.64.0.0/10`` (RFC 6598) —
address space that can never collide with the modelled CDN estates in
``17/8``, ``23/11`` etc.  Sampling weights default to the workload
model's per-region updating-device counts, so socket-level load has the
same regional mix as the simulated flash crowd.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Optional

from ..dns.policies import stable_fraction
from ..dns.query import QueryContext
from ..net.geo import Continent, Coordinates, MappingRegion
from ..net.ipv4 import IPv4Address, IPv4Prefix
from ..workload.adoption import AdoptionModel

__all__ = ["Vantage", "SampledClient", "ClientDirectory", "DEFAULT_VANTAGES"]


@dataclass(frozen=True)
class Vantage:
    """One client population: an address block with its geography."""

    name: str
    prefix: IPv4Prefix
    country: str  # ISO 3166-1 alpha-2, lowercase
    continent: Continent
    coordinates: Coordinates

    @property
    def region(self) -> MappingRegion:
        """The Apple mapping region this vantage falls into."""
        return MappingRegion.for_continent(self.continent)

    def context(self, client: IPv4Address, now: float = 0.0) -> QueryContext:
        """A full query context for ``client`` seen from this vantage."""
        return QueryContext(
            client=client,
            coordinates=self.coordinates,
            continent=self.continent,
            country=self.country,
            now=now,
        )


def _v(name, prefix, country, continent, lat, lon) -> Vantage:
    return Vantage(
        name=name,
        prefix=IPv4Prefix.parse(prefix),
        country=country,
        continent=continent,
        coordinates=Coordinates(lat, lon),
    )


# A worldwide spread matching the paper's probe distribution: dense in
# Europe and North America, present in Asia/Oceania, thin in South
# America and Africa (where Apple deploys no own sites).
DEFAULT_VANTAGES: tuple[Vantage, ...] = (
    _v("de-frankfurt", "100.64.0.0/16", "de", Continent.EUROPE, 50.11, 8.68),
    _v("uk-london", "100.65.0.0/16", "gb", Continent.EUROPE, 51.51, -0.13),
    _v("fr-paris", "100.66.0.0/16", "fr", Continent.EUROPE, 48.86, 2.35),
    _v("us-newyork", "100.67.0.0/16", "us", Continent.NORTH_AMERICA, 40.71, -74.01),
    _v("us-sanjose", "100.68.0.0/16", "us", Continent.NORTH_AMERICA, 37.34, -121.89),
    _v("ca-toronto", "100.69.0.0/16", "ca", Continent.NORTH_AMERICA, 43.65, -79.38),
    _v("jp-tokyo", "100.70.0.0/16", "jp", Continent.ASIA, 35.68, 139.69),
    _v("sg-singapore", "100.71.0.0/16", "sg", Continent.ASIA, 1.35, 103.82),
    _v("au-sydney", "100.72.0.0/16", "au", Continent.OCEANIA, -33.87, 151.21),
    _v("br-saopaulo", "100.73.0.0/16", "br", Continent.SOUTH_AMERICA, -23.55, -46.63),
    _v("za-johannesburg", "100.74.0.0/16", "za", Continent.AFRICA, -26.20, 28.05),
)


@dataclass(frozen=True)
class SampledClient:
    """One synthetic client the load generator acts as."""

    address: IPv4Address
    vantage: Vantage

    def context(self, now: float = 0.0) -> QueryContext:
        """The query context an in-memory resolution would use."""
        return self.vantage.context(self.address, now)


class ClientDirectory:
    """Weighted vantage set with deterministic sampling and reverse lookup.

    ``weights`` assigns a sampling weight per vantage name; missing
    names default to 1.0.  Sampling is keyed by an integer sequence
    number through :func:`~repro.dns.policies.stable_fraction`, so two
    runs (or the two ends of an equivalence test) draw identical client
    populations.
    """

    def __init__(
        self,
        vantages: Iterable[Vantage] = DEFAULT_VANTAGES,
        weights: Optional[dict[str, float]] = None,
    ) -> None:
        self._vantages = tuple(vantages)
        if not self._vantages:
            raise ValueError("a directory needs at least one vantage")
        names = [v.name for v in self._vantages]
        if len(set(names)) != len(names):
            raise ValueError("vantage names must be unique")
        given = dict(weights or {})
        unknown = set(given) - set(names)
        if unknown:
            raise ValueError(f"weights for unknown vantages: {sorted(unknown)}")
        self._weights = [max(0.0, given.get(v.name, 1.0)) for v in self._vantages]
        total = sum(self._weights)
        if total <= 0.0:
            raise ValueError("at least one vantage needs positive weight")
        # Clients spread over a block's host space, skipping the network
        # address so /24 ECS prefixes stay distinguishable.
        self._host_space = [
            max(1, (1 << (32 - v.prefix.length)) - 2) for v in self._vantages
        ]
        self._cumulative: list[float] = []
        running = 0.0
        for weight in self._weights:
            running += weight / total
            self._cumulative.append(running)
        # Per-region index lists + cumulative weights, for arrival
        # schedules that fix the region before the vantage is drawn.
        self._region_indexes: dict[MappingRegion, list[int]] = {}
        for index, vantage in enumerate(self._vantages):
            self._region_indexes.setdefault(vantage.region, []).append(index)
        self._region_cumulative: dict[MappingRegion, list[float]] = {}
        for region, indexes in self._region_indexes.items():
            region_total = sum(self._weights[i] for i in indexes)
            bounds: list[float] = []
            acc = 0.0
            for i in indexes:
                share = (
                    self._weights[i] / region_total if region_total > 0.0
                    else 1.0 / len(indexes)
                )
                acc += share
                bounds.append(acc)
            self._region_cumulative[region] = bounds

    @classmethod
    def from_adoption(cls) -> "ClientDirectory":
        """Weight the default vantages by the flash crowd's per-region
        device counts.

        Each region's updating-device population (the adoption curve
        applied to the installed base) is split evenly across that
        region's vantages, so the socket-level request mix reproduces
        the workload model's regional skew.
        """
        model = AdoptionModel()
        vantage_list = DEFAULT_VANTAGES
        per_region: dict[MappingRegion, int] = {}
        for vantage in vantage_list:
            per_region[vantage.region] = per_region.get(vantage.region, 0) + 1
        weights = {
            v.name: model.updating_devices(v.region) / per_region[v.region]
            for v in vantage_list
        }
        return cls(vantage_list, weights)

    @property
    def vantages(self) -> tuple[Vantage, ...]:
        """All vantages, in declaration order."""
        return self._vantages

    def _client(self, index: int, sequence: int) -> SampledClient:
        vantage = self._vantages[index]
        offset = 1 + sequence % self._host_space[index]
        address = IPv4Address(vantage.prefix.network.value + offset)
        return SampledClient(address=address, vantage=vantage)

    def sample(self, sequence: int) -> SampledClient:
        """The deterministic client for sequence number ``sequence``."""
        fraction = stable_fraction("serve-client", sequence, "")
        # The first bound above the draw; a draw at or past the last
        # bound (rounding) takes the last vantage.
        bounds = self._cumulative
        index = min(bisect_right(bounds, fraction), len(bounds) - 1)
        return self._client(index, sequence)

    def weights(self) -> dict[str, float]:
        """Sampling weight per vantage name (the snapshot payload)."""
        return {v.name: w for v, w in zip(self._vantages, self._weights)}

    def sample_in_region(self, region: MappingRegion, sequence: int) -> SampledClient:
        """The deterministic client for ``sequence``, pinned to ``region``.

        Used by open-loop arrival schedules: the workload model decides
        *which region* wakes up at each instant (diurnal ramp), and the
        directory only picks the vantage within it.  Regions with no
        vantage fall back to the unconstrained draw.
        """
        indexes = self._region_indexes.get(region)
        if not indexes:
            return self.sample(sequence)
        fraction = stable_fraction("serve-client-region", region.value,
                                   sequence, "")
        bounds = self._region_cumulative[region]
        position = min(bisect_right(bounds, fraction), len(bounds) - 1)
        return self._client(indexes[position], sequence)

    def vantage_for(self, address: IPv4Address) -> Optional[Vantage]:
        """The vantage whose block contains ``address``, if any."""
        for vantage in self._vantages:
            if vantage.prefix.contains(address):
                return vantage
        return None

    def context_for(self, address: IPv4Address, now: float = 0.0) -> QueryContext:
        """A query context for ``address``; unknown addresses fall back
        to the first vantage's geography (a resolver with no ECS)."""
        vantage = self.vantage_for(address)
        if vantage is None:
            vantage = self._vantages[0]
        return vantage.context(address, now)

    def __len__(self) -> int:
        return len(self._vantages)
