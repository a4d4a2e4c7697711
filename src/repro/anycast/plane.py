"""The anycast steering plane: shared-VIP announcements over time.

One VIP prefix is announced from every participating site into a
multi-candidate :class:`~repro.isp.bgp.BgpRib`.  The plane evaluates
the fault schedule's routing windows (``route-withdraw`` /
``route-prepend``) *directly* — never through the injector's mutable
edge-detection state — so the catchment map at any instant is a pure
function of ``(sites, clients, schedule, now)``.  That is what makes
sharded runs bit-identical: every worker replica and the coordinator
derive the same maps from the same inputs with no cross-process state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..faults.schedule import FaultKind, FaultSchedule
from ..isp.bgp import BgpRib, BgpRoute
from ..net.asys import AS_APPLE, ASN
from ..net.geo import Continent, Coordinates, MappingRegion
from ..net.ipv4 import IPv4Address, IPv4Prefix

__all__ = [
    "ANYCAST_VIP_PREFIX",
    "STEERING_MODES",
    "check_steering",
    "AnycastPlane",
    "AnycastSite",
    "AnycastTick",
    "ClientGroup",
]

# The shared service prefix, inside Apple's 17/8 but distinct from the
# unicast vip pool (17.253/16): every participating site announces it.
ANYCAST_VIP_PREFIX = IPv4Prefix.parse("17.172.224.0/22")

# How clients reach a site: the 15 s selection CNAME, or BGP catchments
# of the shared VIP.
STEERING_MODES = ("dns", "anycast")


def check_steering(mode: str) -> None:
    """Reject a steering mode no plane can run."""
    if mode not in STEERING_MODES:
        raise ValueError(
            f"unknown steering mode {mode!r} (valid: {', '.join(STEERING_MODES)})"
        )


# Regional transit ASes carrying a site's announcement toward clients.
_REGION_TRANSIT = {
    MappingRegion.US: ASN(65101),
    MappingRegion.EU: ASN(65102),
    MappingRegion.APAC: ASN(65103),
}


@dataclass(frozen=True)
class AnycastSite:
    """One edge site announcing the shared VIP prefix."""

    site_id: str  # "<locode>-<n>", e.g. "defra-1"
    coordinates: Coordinates
    continent: Continent
    backend_vip: IPv4Address  # the site's unicast vip behind the VIP
    capacity_gbps: float = 0.0

    @classmethod
    def of_apple(cls, apple) -> list["AnycastSite"]:
        """Every edge site of an :class:`~repro.apple.deployment.AppleCdn`:
        each announces the shared prefix in front of its first vip."""
        return [
            cls(
                site_id=f"{site.location.code}-{site.site_id}",
                coordinates=site.location.coordinates,
                continent=site.location.continent,
                backend_vip=site.vip_addresses[0],
                capacity_gbps=site.capacity_gbps,
            )
            for site in apple.sites
        ]

    @property
    def region(self) -> MappingRegion:
        """The mapping region the site announces from."""
        return MappingRegion.for_continent(self.continent)

    @property
    def link_id(self) -> str:
        """The ingress link its announcement arrives over."""
        return f"anycast-{self.site_id}"

    def base_route(self, prepend: int = 0) -> BgpRoute:
        """The site's announcement with ``prepend`` extra path entries."""
        path = (_REGION_TRANSIT[self.region],) + (AS_APPLE,) * (1 + prepend)
        return BgpRoute(
            prefix=ANYCAST_VIP_PREFIX,
            as_path=path,
            link_ids=(self.link_id,),
        )


@dataclass(frozen=True)
class ClientGroup:
    """One client population competing for a catchment."""

    name: str
    prefix: IPv4Prefix
    continent: Continent
    coordinates: Coordinates

    @property
    def region(self) -> MappingRegion:
        """The mapping region the population resolves from."""
        return MappingRegion.for_continent(self.continent)


@dataclass(frozen=True)
class AnycastTick:
    """Per-tick catchment bookkeeping appended by ``observe``."""

    now: float
    signature: str
    share_by_site: dict
    broken_groups: tuple[str, ...]  # groups whose site changed this tick
    shifted_share: float  # weight share of clients that moved
    shifted_gbps: float  # demand carried by the moved share


class AnycastPlane:
    """Sites, clients and the RIB the catchments are computed from."""

    def __init__(
        self,
        sites: Sequence[AnycastSite],
        groups: Sequence[ClientGroup],
        schedule: Optional[FaultSchedule] = None,
    ) -> None:
        if not sites:
            raise ValueError("an anycast plane needs at least one site")
        self.sites: tuple[AnycastSite, ...] = tuple(sites)
        self.groups: tuple[ClientGroup, ...] = tuple(groups)
        self.schedule = schedule if schedule is not None else FaultSchedule()
        self.site_by_id = {site.site_id: site for site in self.sites}
        self._site_by_link = {site.link_id: site for site in self.sites}
        # Full candidate table: every site's unfaulted announcement.
        self.rib = BgpRib()
        for site in self.sites:
            self.rib.install(site.base_route())
        self._map_cache: dict[tuple, "CatchmentMap"] = {}
        self.log: list[AnycastTick] = []
        self._last_map: Optional["CatchmentMap"] = None

    # -- routing state ------------------------------------------------

    def route_state(self, now: float) -> tuple[tuple[str, int], ...]:
        """Live ``(site_id, prepend)`` pairs at ``now`` (the map's key).

        A site under ``route-withdraw`` is absent; ``route-prepend``
        severity is the prepend count.  Read straight off the schedule:
        no injector state, so identical in every process.
        """
        state = []
        for site in self.sites:
            if self.schedule.find(FaultKind.ROUTE_WITHDRAW, now, site.site_id):
                continue
            window = self.schedule.find(FaultKind.ROUTE_PREPEND, now, site.site_id)
            prepend = max(1, int(window.severity)) if window else 0
            state.append((site.site_id, prepend))
        if not state:
            # All sites withdrawn: keep the last site up rather than
            # blackholing the VIP (a full withdrawal would be a
            # cdn-blackout, which is a different fault kind).
            state = [(self.sites[-1].site_id, 0)]
        return tuple(state)

    def candidate_routes(self, now: float) -> tuple[BgpRoute, ...]:
        """The live announcements of the VIP prefix at ``now``."""
        return tuple(
            self.site_by_id[site_id].base_route(prepend)
            for site_id, prepend in self.route_state(now)
        )

    # -- catchments ----------------------------------------------------

    def catchment_map(self, now: float) -> "CatchmentMap":
        """The catchment map in force at ``now`` (cached per route state)."""
        from .catchment import build_catchment_map

        state = self.route_state(now)
        cached = self._map_cache.get(state)
        if cached is not None:
            return cached
        built = build_catchment_map(
            self.groups, self.candidate_routes(now), self._site_by_link
        )
        self._map_cache[state] = built
        return built

    def site_for(self, address: IPv4Address, now: float) -> Optional[AnycastSite]:
        """The site a concrete client address reaches at ``now``."""
        site_id = self.catchment_map(now).site_of(address)
        return self.site_by_id.get(site_id) if site_id else None

    def observe(self, now: float, demand_gbps: float = 0.0) -> AnycastTick:
        """Record the tick's catchment state (affinity vs the last tick).

        Called once per engine tick in strict time order; every replica
        makes the same calls, so the log is bit-identical across
        workers.  ``demand_gbps`` prices the shifted share in traffic.
        """
        current = self.catchment_map(now)
        broken: tuple[str, ...] = ()
        shifted_share = 0.0
        if self._last_map is not None and current is not self._last_map:
            broken = self._last_map.diff(current)
            if broken:
                names = set(broken)
                moved = sum(1 for group in self.groups if group.name in names)
                total = len(self.groups)
                shifted_share = moved / total if total else 0.0
        tick = AnycastTick(
            now=now,
            signature=current.signature,
            share_by_site=current.share_by_site(),
            broken_groups=broken,
            shifted_share=shifted_share,
            shifted_gbps=shifted_share * demand_gbps,
        )
        self.log.append(tick)
        self._last_map = current
        return tick
