"""Builders for the third-party CDN fleets of the Apple Meta-CDN.

Section 3.2 identifies the third-party CDNs in the mapping chain (a
third, Level3, left it in late June 2017 and is not modelled):

* **Akamai** — handover ``a1271.gi3.akamai.net`` (plus, from six hours
  into the rollout, ``a1015.gi3.akamai.net`` for the EU); used in all
  three regions.  Akamai famously places many caches inside other
  operators' networks, which Figures 4/5 plot as "Akamai other AS".
* **Limelight** — handovers ``apple.vo.llnwi.net`` (US/EU) and
  ``apple-dnld.vo.llnwd.net`` (APAC); some caches in other ASes too.

Address plans use each operator's documented ranges (Akamai 23.0.0.0/12
area, Limelight 68.142.64.0/18) so analysis output is
recognisable, with "other AS" caches drawn from a distinct pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from ..net.asys import AS_AKAMAI, AS_LIMELIGHT, ASN
from ..net.ipv4 import IPv4Prefix
from ..net.locode import Location, LocodeDatabase
from .cache import ContentCache
from .deployment import CdnDeployment, ExposureController
from .server import CacheServer, ServerFunction, ServerRole

__all__ = ["ThirdPartyPlan", "build_third_party", "AKAMAI_PLAN", "LIMELIGHT_PLAN"]

_DELIVERY_ROLE = ServerRole(ServerFunction.EDGE)
_CACHE_BYTES = 4 << 40  # 4 TiB per delivery server


@dataclass(frozen=True)
class ThirdPartyPlan:
    """Everything needed to instantiate one third-party CDN fleet."""

    operator: str
    asn: ASN
    own_prefix: IPv4Prefix
    other_as_prefix: IPv4Prefix  # addresses of caches hosted in other ASs
    hostname_pattern: str  # format with {metro}, {index}
    servers_per_metro: int
    other_as_share: float  # fraction of servers placed in foreign ASs
    per_server_gbps: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.other_as_share <= 1.0:
            raise ValueError("other_as_share must be in [0, 1]")
        if self.servers_per_metro <= 0:
            raise ValueError("servers_per_metro must be positive")


AKAMAI_PLAN = ThirdPartyPlan(
    operator="Akamai",
    asn=AS_AKAMAI,
    own_prefix=IPv4Prefix.parse("23.192.0.0/11"),
    other_as_prefix=IPv4Prefix.parse("92.122.0.0/15"),
    hostname_pattern="a23-{metro}-{index}.deploy.static.akamaitechnologies.com",
    servers_per_metro=48,
    other_as_share=0.45,
    per_server_gbps=8.0,
)

LIMELIGHT_PLAN = ThirdPartyPlan(
    operator="Limelight",
    asn=AS_LIMELIGHT,
    own_prefix=IPv4Prefix.parse("68.142.64.0/18"),
    other_as_prefix=IPv4Prefix.parse("208.111.128.0/18"),
    hostname_pattern="cds{index:02d}.{metro}.llnw.net",
    servers_per_metro=64,
    other_as_share=0.20,
    per_server_gbps=10.0,
)


def build_third_party(
    plan: ThirdPartyPlan,
    metros: Iterable[Location],
    other_as: ASN,
    exposure_factory: Optional[Callable[[], ExposureController]] = None,
) -> CdnDeployment:
    """Instantiate a third-party fleet across ``metros``.

    ``other_as`` is the AS that hosts the plan's ``other_as_share`` of
    caches (in reality many different hosting ASs; one suffices for the
    source-AS vs handover-AS analyses).  The default ``exposure_factory``
    derives from the plan's per-server capacity with a one-hour ramp —
    scenario code overrides it for the six-hour Akamai ramp.
    """
    if exposure_factory is None:
        per_server = plan.per_server_gbps

        def exposure_factory() -> ExposureController:
            return ExposureController(
                per_server_gbps=per_server, min_servers=4, tau_seconds=3600.0
            )

    deployment = CdnDeployment(
        operator=plan.operator,
        asn=plan.asn,
        exposure_factory=exposure_factory,
    )
    own_addresses = plan.own_prefix.size
    other_addresses = plan.other_as_prefix.size
    own_cursor = 1
    other_cursor = 1
    other_every = round(1.0 / plan.other_as_share) if plan.other_as_share > 0 else 0

    for metro in metros:
        for index in range(plan.servers_per_metro):
            hostname = plan.hostname_pattern.format(metro=metro.code, index=index)
            in_other_as = other_every > 0 and index % other_every == other_every - 1
            if in_other_as:
                if other_cursor >= other_addresses:
                    raise ValueError(f"{plan.operator}: other-AS prefix exhausted")
                address = plan.other_as_prefix.host(other_cursor)
                other_cursor += 1
                asn = other_as
            else:
                if own_cursor >= own_addresses:
                    raise ValueError(f"{plan.operator}: own prefix exhausted")
                address = plan.own_prefix.host(own_cursor)
                own_cursor += 1
                asn = plan.asn
            server = CacheServer(
                hostname=hostname,
                address=address,
                role=_DELIVERY_ROLE,
                asn=asn,
                capacity_gbps=plan.per_server_gbps,
                cache=ContentCache(_CACHE_BYTES),
            )
            deployment.add_server(server, metro)
    return deployment
