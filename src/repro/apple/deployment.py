"""Apple's own CDN infrastructure: the 34 edge sites of Figure 3.

Figure 3 labels each metro with ``<# of sites>/<total # of cache
servers>`` where the server count refers to ``edge-bx`` nodes.  The
reproduction encodes the figure's 30 labels — 34 sites, 1072 edge-bx
servers in total — with a canonical metro assignment honouring the
paper's density statement: densest in the USA, then Europe, then East
Asia; nothing in South America or Africa.

Structure per site (Section 3.3): each DNS-visible ``vip-bx`` address
fronts four ``edge-bx`` caches ("a single Apple CDN IP represents the
download capacity of four servers"); misses fall back to a site-shared
``edge-lx`` tier and then to the origin.  Delivery addresses live in
``17.253.0.0/16`` inside Apple's ``17.0.0.0/8``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cdn.cache import ContentCache
from ..cdn.deployment import CdnDeployment
from ..cdn.server import (
    CacheServer,
    SecondaryFunction,
    ServerFunction,
    ServerRole,
)
from ..cdn.site import EdgeSite, Origin, ServedRequest
from ..http.messages import HttpRequest
from ..net.asys import AS_APPLE
from ..net.ipv4 import IPv4Address, IPv4Prefix
from ..net.locode import Location, LocodeDatabase
from .naming import AAPLIMG_DOMAIN, TS_APPLE_DOMAIN, format_hostname

__all__ = [
    "MetroPlan",
    "APPLE_METRO_PLANS",
    "AppleSite",
    "AppleCdn",
    "APPLE_DELIVERY_PREFIX",
    "EDGE_BX_PER_VIP",
]

APPLE_DELIVERY_PREFIX = IPv4Prefix.parse("17.253.0.0/16")
EDGE_BX_PER_VIP = 4  # Section 3.3: one vip load-balances four edge-bx
EDGE_BX_CACHE_BYTES = 2 << 40
EDGE_LX_CACHE_BYTES = 20 << 40
# Addresses a GSLB answer pool draws from per vantage.
POOL_LIMIT = 8


@dataclass(frozen=True)
class MetroPlan:
    """One Figure 3 label: a metro with sites and total edge-bx count."""

    locode: str
    sites: int
    edge_bx_total: int

    def __post_init__(self) -> None:
        if self.sites <= 0:
            raise ValueError("sites must be positive")
        if self.edge_bx_total % self.sites != 0:
            raise ValueError(
                f"{self.locode}: {self.edge_bx_total} servers do not split "
                f"evenly over {self.sites} sites"
            )
        per_site = self.edge_bx_total // self.sites
        if per_site % EDGE_BX_PER_VIP != 0:
            raise ValueError(
                f"{self.locode}: {per_site} edge-bx per site is not a "
                f"multiple of {EDGE_BX_PER_VIP}"
            )

    @property
    def edge_bx_per_site(self) -> int:
        """edge-bx servers in each of the metro's sites."""
        return self.edge_bx_total // self.sites

    @property
    def label(self) -> str:
        """The Figure 3 label text for this metro."""
        return f"{self.sites}/{self.edge_bx_total}"


# The 30 Figure 3 labels, assigned to metros following the paper's
# density ordering (US > Europe > East Asia; none in SA/Africa).
APPLE_METRO_PLANS: tuple[MetroPlan, ...] = (
    # United States — 14 metros, 18 sites, 648 servers
    MetroPlan("usnyc", 2, 96),
    MetroPlan("uslax", 2, 80),
    MetroPlan("ussjc", 2, 80),
    MetroPlan("uschi", 2, 64),
    MetroPlan("usiad", 1, 48),
    MetroPlan("usdal", 1, 40),
    MetroPlan("usmia", 1, 40),
    MetroPlan("ussea", 1, 32),
    MetroPlan("usatl", 1, 32),
    MetroPlan("usden", 1, 32),
    MetroPlan("ushou", 1, 32),
    MetroPlan("usbos", 1, 32),
    MetroPlan("usphx", 1, 24),
    MetroPlan("usmsp", 1, 16),
    # Canada — 1 metro, 1 site, 32 servers
    MetroPlan("cayto", 1, 32),
    # Europe — 8 metros, 8 sites, 192 servers
    MetroPlan("defra", 1, 40),
    MetroPlan("uklon", 1, 32),
    MetroPlan("nlams", 1, 32),
    MetroPlan("frpar", 1, 32),
    MetroPlan("deber", 1, 16),
    MetroPlan("semma", 1, 16),
    MetroPlan("itmil", 1, 16),
    MetroPlan("esmad", 1, 8),
    # East Asia & Oceania — 7 metros, 7 sites, 200 servers
    MetroPlan("jptyo", 1, 32),
    MetroPlan("hkhkg", 1, 32),
    MetroPlan("sgsin", 1, 32),
    MetroPlan("krsel", 1, 32),
    MetroPlan("ausyd", 1, 32),
    MetroPlan("jposa", 1, 24),
    MetroPlan("twtpe", 1, 16),
)


class AppleSite:
    """One Apple edge site: vip groups plus a shared edge-lx tier."""

    def __init__(
        self,
        location: Location,
        site_id: int,
        groups: list[EdgeSite],
        edge_lx: CacheServer,
    ) -> None:
        if not groups:
            raise ValueError("a site needs at least one vip group")
        self.location = location
        self.site_id = site_id
        self.groups = groups
        self.edge_lx = edge_lx
        self._by_vip = {group.vip.address: group for group in groups}

    @property
    def site_key(self) -> tuple[str, int]:
        """(locode, site id) — the identity used by site discovery."""
        return (self.location.code, self.site_id)

    @property
    def vip_addresses(self) -> tuple[IPv4Address, ...]:
        """Every DNS-visible address of this site."""
        return tuple(group.vip.address for group in self.groups)

    @property
    def edge_bx_count(self) -> int:
        """Delivery servers (the Figure 3 denominator contribution)."""
        return sum(len(group.edge_bx) for group in self.groups)

    @property
    def capacity_gbps(self) -> float:
        """Aggregate delivery capacity of the site."""
        return sum(group.capacity_gbps for group in self.groups)

    @property
    def served_bytes(self) -> int:
        """Bytes delivered by all edge-bx servers so far."""
        return sum(
            server.served_bytes for group in self.groups for server in group.edge_bx
        )

    def serve(self, vip: IPv4Address, request: HttpRequest, size: int) -> ServedRequest:
        """Serve a request that arrived at one of this site's vips."""
        group = self._by_vip.get(vip)
        if group is None:
            raise KeyError(f"{vip} is not a vip of {self.location.code}{self.site_id}")
        return group.serve(request, size)

    def __str__(self) -> str:
        return (
            f"AppleSite({self.location.code}{self.site_id}: "
            f"{len(self.groups)} vips, {self.edge_bx_count} edge-bx)"
        )


class AppleCdn:
    """Apple's complete delivery estate plus its DNS-facing pool."""

    def __init__(
        self,
        sites: list[AppleSite],
        deployment: CdnDeployment,
        reverse_dns: dict[IPv4Address, str],
    ) -> None:
        self.sites = sites
        self.deployment = deployment
        self._reverse_dns = reverse_dns
        self._site_by_vip: dict[IPv4Address, AppleSite] = {}
        for site in sites:
            for address in site.vip_addresses:
                self._site_by_vip[address] = site

    @classmethod
    def build(
        cls,
        locations: Optional[LocodeDatabase] = None,
        plans: tuple[MetroPlan, ...] = APPLE_METRO_PLANS,
        edge_bx_gbps: float = 10.0,
    ) -> "AppleCdn":
        """Instantiate the full Figure 3 deployment.

        Each site is allocated a /22 inside ``17.253.0.0/16``: vips in
        its first /24, edge-bx in the next two, edge-lx in the last.
        """
        db = locations if locations is not None else LocodeDatabase.builtin()
        shared_origin = Origin()
        sites: list[AppleSite] = []
        deployment = CdnDeployment(
            operator="Apple", asn=AS_APPLE, exposure_factory=None, pool_limit=POOL_LIMIT
        )
        reverse_dns: dict[IPv4Address, str] = {}
        site_index = 0
        for plan in plans:
            location = db.get(plan.locode)
            for site_id in range(1, plan.sites + 1):
                site = cls._build_site(
                    location,
                    site_id,
                    plan.edge_bx_per_site,
                    site_index,
                    edge_bx_gbps,
                    shared_origin,
                    reverse_dns,
                )
                sites.append(site)
                for group in site.groups:
                    deployment.add_server(group.vip, location)
                site_index += 1
        return cls(sites, deployment, reverse_dns)

    @staticmethod
    def _build_site(
        location: Location,
        site_id: int,
        edge_bx_count: int,
        site_index: int,
        edge_bx_gbps: float,
        origin: Origin,
        reverse_dns: dict[IPv4Address, str],
    ) -> AppleSite:
        base = APPLE_DELIVERY_PREFIX.network.value + (site_index << 10)  # /22 per site
        vip_count = edge_bx_count // EDGE_BX_PER_VIP

        def make_server(
            function: ServerFunction,
            secondary: SecondaryFunction,
            server_id: int,
            offset: int,
            domain: str,
            cache_bytes: Optional[int],
        ) -> CacheServer:
            address = IPv4Address(base + offset)
            hostname = format_hostname(
                location.code, site_id, function, secondary, server_id, domain
            )
            reverse_dns[address] = format_hostname(
                location.code, site_id, function, secondary, server_id, AAPLIMG_DOMAIN
            )
            return CacheServer(
                hostname=hostname,
                address=address,
                role=ServerRole(function, secondary),
                asn=AS_APPLE,
                capacity_gbps=edge_bx_gbps * (EDGE_BX_PER_VIP if function is ServerFunction.VIP else 1),
                cache=ContentCache(cache_bytes) if cache_bytes else None,
            )

        edge_lx = make_server(
            ServerFunction.EDGE,
            SecondaryFunction.LX,
            server_id=1,
            offset=(3 << 8) + 1,
            domain=TS_APPLE_DOMAIN,
            cache_bytes=EDGE_LX_CACHE_BYTES,
        )
        # Support roles (Table 1 lists gslb, dns, ntp, tool): present in
        # the PTR estate so a 17/8 scan sees the full naming grammar.
        for function, offset in (
            (ServerFunction.DNS, (3 << 8) + 16),
            (ServerFunction.NTP, (3 << 8) + 17),
            (ServerFunction.TOOL, (3 << 8) + 18),
        ):
            address = IPv4Address(base + offset)
            reverse_dns[address] = format_hostname(
                location.code, site_id, function, None, 1, AAPLIMG_DOMAIN
            )
        groups: list[EdgeSite] = []
        for vip_id in range(1, vip_count + 1):
            vip = make_server(
                ServerFunction.VIP,
                SecondaryFunction.BX,
                server_id=vip_id,
                offset=vip_id,
                domain=AAPLIMG_DOMAIN,
                cache_bytes=None,
            )
            edge_bx = [
                make_server(
                    ServerFunction.EDGE,
                    SecondaryFunction.BX,
                    server_id=(vip_id - 1) * EDGE_BX_PER_VIP + n,
                    offset=(1 << 8) + (vip_id - 1) * EDGE_BX_PER_VIP + n,
                    domain=TS_APPLE_DOMAIN,
                    cache_bytes=EDGE_BX_CACHE_BYTES,
                )
                for n in range(1, EDGE_BX_PER_VIP + 1)
            ]
            groups.append(
                EdgeSite(
                    location=location,
                    site_id=site_id,
                    vip=vip,
                    edge_bx=edge_bx,
                    edge_lx=edge_lx,
                    origin=origin,
                )
            )
        return AppleSite(location, site_id, groups, edge_lx)

    # ----- lookups ------------------------------------------------------

    def site_for(self, vip: IPv4Address) -> Optional[AppleSite]:
        """The site owning the vip address, if any."""
        return self._site_by_vip.get(vip)

    def install_fault_injector(self, injector) -> None:
        """Arm every vip group with a fault plane.

        ``injector`` is a :class:`repro.faults.FaultInjector` (or None
        to disarm); crashed edge-bx caches then fall through to the
        edge-lx tier per Section 3.3.
        """
        for site in self.sites:
            for group in site.groups:
                group.faults = injector

    def reverse_dns(self, address: IPv4Address) -> Optional[str]:
        """The ``aaplimg.com`` PTR name of ``address`` (any function)."""
        return self._reverse_dns.get(address)

    def reverse_dns_table(self) -> dict[IPv4Address, str]:
        """The whole PTR table (what a 17/8 scan would enumerate)."""
        return dict(self._reverse_dns)

    def serve(self, vip: IPv4Address, request: HttpRequest, size: int) -> ServedRequest:
        """Serve ``request`` at the site owning ``vip``."""
        site = self.site_for(vip)
        if site is None:
            raise KeyError(f"no Apple site serves {vip}")
        return site.serve(vip, request, size)

    # ----- aggregate facts -----------------------------------------------

    @property
    def site_count(self) -> int:
        """Number of edge sites (the paper discovered 34)."""
        return len(self.sites)

    @property
    def edge_bx_count(self) -> int:
        """Total delivery servers across all sites."""
        return sum(site.edge_bx_count for site in self.sites)

    @property
    def total_capacity_gbps(self) -> float:
        """Aggregate delivery capacity."""
        return sum(site.capacity_gbps for site in self.sites)
