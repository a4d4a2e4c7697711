"""The Figure 2 request-mapping estate, wired end to end.

This module assembles the complete DNS infrastructure of the Apple
Meta-CDN as the paper dissected it:

* step 1 — ``appldnld.apple.com.akadns.net`` (Akamai): world vs
  India/China country split;
* step 2 — ``appldnld.g.applimg.com`` (Apple, TTL 15 s): the Meta-CDN
  service deciding between Apple's own CDN and third parties;
* step 3 — ``ios8-{us|eu|apac}-lb.apple.com.akadns.net`` (Akamai):
  selection of the third-party CDN with operator-controlled shares;
* step 4 — ``{a|b}.gslb.applimg.com`` (Apple): the GSLB answering with
  Apple cache-server addresses;
* the third-party handover names: ``appldnld2.apple.com.edgesuite.net``
  → ``a1271.gi3.akamai.net`` (and ``a1015`` after the rollout change),
  ``apple.vo.llnwi.net`` (US/EU) and ``apple-dnld.vo.llnwd.net`` (APAC)
  for Limelight.

Two of the three selection steps run on Akamai's DNS, one on Apple's —
the operator attribution the analysis layer recovers from resolutions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from ..cdn.deployment import CdnDeployment
from ..dns.policies import (
    CnamePolicy,
    CountrySplitPolicy,
    GslbAddressPolicy,
    StaticPolicy,
    WeightSchedule,
    WeightedCnamePolicy,
)
from ..dns.records import ARecord
from ..dns.resolver import RecursiveResolver
from ..dns.zone import AuthoritativeServer, Zone
from ..http.messages import HttpRequest, HttpResponse
from ..net.geo import MappingRegion
from ..net.ipv4 import IPv4Address
from .deployment import AppleCdn
from .policy import (
    NAMES,
    AkamaiHandoverPolicy,
    MappingNames,
    MetaCdnController,
    OffloadCnamePolicy,
)

__all__ = ["MappingNames", "NAMES", "MetaCdnEstate", "build_meta_cdn"]


# Measured TTLs (Figure 2): entry hop 21600 s, country split 120 s,
# selection 15 s, third-party selection 300 s, Akamai handover 300 s,
# Limelight A records 20 s (US/EU) / 60 s (APAC), Apple GSLB 15 s.
ENTRY_TTL = 21600
COUNTRY_SPLIT_TTL = 120
SELECTION_TTL = 15
THIRD_PARTY_SELECT_TTL = 300
EDGESUITE_TTL = 300
AKAMAI_A_TTL = 20
LIMELIGHT_US_EU_A_TTL = 20
LIMELIGHT_APAC_A_TTL = 60
GSLB_A_TTL = 15
MANIFEST_A_TTL = 3600

MANIFEST_SERVER_ADDRESS = IPv4Address.parse("17.171.4.33")


def _default_weights() -> dict[MappingRegion, WeightSchedule]:
    """Even Akamai/Limelight split everywhere (scenarios override)."""
    return {
        region: WeightSchedule.constant(
            {
                NAMES.edgesuite: 0.5,
                NAMES.limelight_handover(region): 0.5,
            }
        )
        for region in MappingRegion
    }


@dataclass
class MetaCdnEstate:
    """The assembled Meta-CDN: DNS servers, deployments and controller."""

    names: MappingNames
    apple: AppleCdn
    akamai: CdnDeployment
    limelight: CdnDeployment
    controller: MetaCdnController
    servers: list[AuthoritativeServer]
    third_party_weights: dict[MappingRegion, WeightSchedule] = field(
        default_factory=dict
    )
    # Health-aware failover view ("SelectionHealth"); None = the estate
    # never fails over and every hot path skips the health checks.
    health: Optional[object] = None

    def resolver(self, cache: bool = True) -> RecursiveResolver:
        """A recursive resolver over the full estate."""
        return RecursiveResolver(self.servers, cache=cache)

    def apple_share(self, region: MappingRegion, now: float) -> float:
        """The step-2 Apple share, bent by failover when health is wired."""
        share = self.controller.apple_share(region)
        if self.health is not None:
            share = self.health.effective_share(share, region, now)
        return share

    @property
    def deployments(self) -> dict[str, CdnDeployment]:
        """Every delivery fleet by operator name."""
        return {
            "Apple": self.apple.deployment,
            "Akamai": self.akamai,
            "Limelight": self.limelight,
        }

    def _fleet_at(self, address: IPv4Address) -> tuple:
        """(operator, deployment) of the fleet owning ``address``."""
        for operator, deployment in self.deployments.items():
            if deployment.server_at(address) is not None:
                return operator, deployment
        return None, None

    def deployment_at(self, address: IPv4Address) -> Optional[str]:
        """The operator whose delivery fleet owns ``address``."""
        return self._fleet_at(address)[0]

    def serve_at(self, address: IPv4Address, request: HttpRequest,
                 size: int) -> Optional[HttpResponse]:
        """Serve ``request`` at ``address``; ``None`` if no fleet owns it.

        The one vip router under the model (``Sep2017Scenario.http_fetch``)
        and the wire (``serve.httpserver.estate_router``): an Apple vip
        goes through its site's vip → edge-bx → edge-lx hierarchy, a
        third-party address through that fleet's flat delivery model.
        """
        _operator, deployment = self._fleet_at(address)
        if deployment is None:
            return None
        if deployment is self.apple.deployment:
            return self.apple.serve(address, request, size).response
        return deployment.serve(address, request, size)


def build_meta_cdn(
    apple_cdn: AppleCdn,
    akamai: CdnDeployment,
    limelight: CdnDeployment,
    controller: MetaCdnController,
    third_party_weights: Optional[Mapping[MappingRegion, WeightSchedule]] = None,
    a1015_from: Optional[float] = None,
    health_monitor=None,
) -> MetaCdnEstate:
    """Wire the full Figure 2 estate across the three DNS operators.

    ``third_party_weights`` drives step 3 per region (the shares Apple
    adjusts commercially); ``a1015_from`` is the simulation time at
    which Akamai's extra EU handover name appears (``None`` = never —
    the pre-rollout configuration).

    ``health_monitor`` (a :class:`repro.faults.CdnHealthMonitor`) makes
    the estate failover-aware: the step-2 selection consults member
    health before picking a branch and the step-3 weight schedules
    answer only healthy members.  Without one, behaviour is identical
    to the healthy-path build.
    """
    weights = dict(third_party_weights) if third_party_weights else _default_weights()
    for region in MappingRegion:
        if region not in weights:
            raise ValueError(f"missing third-party weights for region {region.value}")

    health = None
    if health_monitor is not None:
        from ..faults.health import SelectionHealth

        health = SelectionHealth(health_monitor, NAMES.member_of)
        weights = {
            region: health.wrap_schedule(region, schedule)
            for region, schedule in weights.items()
        }

    # --- Apple's DNS -----------------------------------------------------
    apple_zone = Zone("apple.com")
    apple_zone.bind(NAMES.entry_point, CnamePolicy(NAMES.akadns_entry, ENTRY_TTL))
    apple_zone.bind(
        NAMES.manifest_host,
        StaticPolicy(
            (ARecord(NAMES.manifest_host, MANIFEST_SERVER_ADDRESS, MANIFEST_A_TTL),)
        ),
    )
    applimg_zone = Zone("applimg.com")
    applimg_zone.bind(
        NAMES.selection,
        OffloadCnamePolicy(
            controller=controller,
            gslb_targets=(NAMES.gslb_a, NAMES.gslb_b),
            ttl=SELECTION_TTL,
            health=health,
        ),
    )
    for gslb_name in (NAMES.gslb_a, NAMES.gslb_b):
        applimg_zone.bind(
            gslb_name,
            GslbAddressPolicy(
                pool=apple_cdn.deployment.pool_for,
                ttl=GSLB_A_TTL,
                answer_count=4,
                salt=gslb_name,
            ),
        )
    apple_server = AuthoritativeServer("Apple", [apple_zone, applimg_zone])

    # --- Akamai's DNS ------------------------------------------------------
    akadns_zone = Zone("akadns.net")
    akadns_zone.bind(
        NAMES.akadns_entry,
        CountrySplitPolicy(
            default=NAMES.selection,
            overrides={"in": NAMES.india_lb, "cn": NAMES.china_lb},
            ttl=COUNTRY_SPLIT_TTL,
        ),
    )
    # India/China are not studied further (few probes there); both names
    # hand straight to the Akamai CDN so resolutions still complete.
    akadns_zone.bind(NAMES.india_lb, CnamePolicy(NAMES.edgesuite, COUNTRY_SPLIT_TTL))
    akadns_zone.bind(NAMES.china_lb, CnamePolicy(NAMES.edgesuite, COUNTRY_SPLIT_TTL))
    for region in MappingRegion:
        akadns_zone.bind(
            NAMES.ios8_lb(region),
            WeightedCnamePolicy(
                schedule=weights[region],
                ttl=THIRD_PARTY_SELECT_TTL,
                salt=region.value,
            ),
        )
    edgesuite_zone = Zone("edgesuite.net")
    edgesuite_zone.bind(
        NAMES.edgesuite,
        AkamaiHandoverPolicy(
            primary=NAMES.akamai_primary,
            secondary=NAMES.akamai_secondary,
            secondary_from=a1015_from,
            ttl=EDGESUITE_TTL,
        ),
    )
    akamai_net_zone = Zone("akamai.net")
    for handover in (NAMES.akamai_primary, NAMES.akamai_secondary):
        akamai_net_zone.bind(
            handover,
            GslbAddressPolicy(
                pool=akamai.pool_for,
                ttl=AKAMAI_A_TTL,
                answer_count=8,
                salt=handover,
            ),
        )
    akamai_server = AuthoritativeServer(
        "Akamai", [akadns_zone, edgesuite_zone, akamai_net_zone]
    )

    # --- Limelight's DNS ---------------------------------------------------
    llnwi_zone = Zone("llnwi.net")
    llnwi_zone.bind(
        NAMES.limelight_us_eu,
        GslbAddressPolicy(
            pool=limelight.pool_for,
            ttl=LIMELIGHT_US_EU_A_TTL,
            answer_count=8,
            salt=NAMES.limelight_us_eu,
        ),
    )
    llnwd_zone = Zone("llnwd.net")
    llnwd_zone.bind(
        NAMES.limelight_apac,
        GslbAddressPolicy(
            pool=limelight.pool_for,
            ttl=LIMELIGHT_APAC_A_TTL,
            answer_count=8,
            salt=NAMES.limelight_apac,
        ),
    )
    limelight_server = AuthoritativeServer("Limelight", [llnwi_zone, llnwd_zone])

    return MetaCdnEstate(
        names=NAMES,
        apple=apple_cdn,
        akamai=akamai,
        limelight=limelight,
        controller=controller,
        servers=[apple_server, akamai_server, limelight_server],
        third_party_weights=weights,
        health=health,
    )
