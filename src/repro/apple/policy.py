"""The Meta-CDN service: Apple's CDN-selection policy.

Section 5.3's key finding is the *Apple-first* shape of the offload:
"Apple uses its own CDN first before offloading" — its CDN runs at high
capacity through the event while third-party CDNs absorb the spill, with
the third-party split changing day by day (Akamai only on release day,
Limelight throughout).

:class:`MetaCdnController` implements that decision: given the demand a
region currently offers and Apple's regional capacity, it computes the
share of requests kept on Apple's own CDN; the remainder is handed to
the third-party selection step.  :class:`OffloadCnamePolicy` is the
DNS-facing half — the policy bound to ``appldnld.g.applimg.com``, whose
15 s TTL is what makes this control loop responsive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from ..dns.policies import Answer, check_ttl, cname_table, sticky_draw
from ..dns.query import QueryContext
from ..dns.records import ResourceRecord
from ..net.geo import MappingRegion

__all__ = [
    "MappingNames",
    "NAMES",
    "MetaCdnController",
    "OffloadCnamePolicy",
    "AkamaiHandoverPolicy",
]

# From ``AkamaiHandoverPolicy.secondary_from`` on, this share of EU
# clients is handed to the secondary name.
AKAMAI_SECONDARY_SHARE = 0.5


class MappingNames:
    """Every DNS name in the Figure 2 chain, as measured (read :data:`NAMES`)."""

    entry_point: str = "appldnld.apple.com"
    manifest_host: str = "mesu.apple.com"
    akadns_entry: str = "appldnld.apple.com.akadns.net"
    india_lb: str = "india-lb.itunes-apple.com.akadns.net"
    china_lb: str = "china-lb.itunes-apple.com.akadns.net"
    selection: str = "appldnld.g.applimg.com"
    gslb_a: str = "a.gslb.applimg.com"
    gslb_b: str = "b.gslb.applimg.com"
    edgesuite: str = "appldnld2.apple.com.edgesuite.net"
    akamai_primary: str = "a1271.gi3.akamai.net"
    akamai_secondary: str = "a1015.gi3.akamai.net"
    limelight_us_eu: str = "apple.vo.llnwi.net"
    limelight_apac: str = "apple-dnld.vo.llnwd.net"

    def ios8_lb(self, region: MappingRegion) -> str:
        """The regional third-party selection name."""
        return f"ios8-{region.value}-lb.apple.com.akadns.net"

    def limelight_handover(self, region: MappingRegion) -> str:
        """Limelight's region-specific handover name."""
        if region is MappingRegion.APAC:
            return self.limelight_apac
        return self.limelight_us_eu


NAMES = MappingNames()


class MetaCdnController:
    """Decides, per region and instant, the share Apple's CDN keeps.

    ``capacity_gbps`` is Apple's own delivery capacity per region;
    ``target_utilization`` is the fill level Apple is willing to run at
    before spilling (the ISP data shows Apple "runs at high capacity"
    on the busiest days).  Demand is fed in by the simulation loop via
    :meth:`observe_demand`; with no observation yet, everything stays
    on Apple.
    """

    def __init__(
        self,
        capacity_gbps: Mapping[MappingRegion, float],
        target_utilization: float = 0.95,
        min_third_party_share: float = 0.0,
    ) -> None:
        if not 0.0 < target_utilization <= 1.0:
            raise ValueError("target_utilization must be in (0, 1]")
        if not 0.0 <= min_third_party_share < 1.0:
            raise ValueError("min_third_party_share must be in [0, 1)")
        self._capacity = dict(capacity_gbps)
        self.target_utilization = target_utilization
        self.min_third_party_share = min_third_party_share
        self._demand: dict[MappingRegion, float] = {}

    def observe_demand(self, region: MappingRegion, gbps: float) -> None:
        """Report the demand currently offered in ``region``."""
        if gbps < 0:
            raise ValueError("demand cannot be negative")
        self._demand[region] = gbps

    def demand(self, region: MappingRegion) -> float:
        """The last observed demand for ``region`` (0 before any)."""
        return self._demand.get(region, 0.0)

    def capacity(self, region: MappingRegion) -> float:
        """Apple's own capacity in ``region``."""
        return self._capacity.get(region, 0.0)

    def apple_share(self, region: MappingRegion) -> float:
        """Fraction of requests kept on Apple's own CDN right now.

        Apple-first: the full non-contracted share while demand fits
        under the utilisation target, then exactly the servable
        fraction — the spill goes to third parties.  A standing
        ``min_third_party_share`` (commercial volume contracts; the
        reason Europe shows ~50 % third-party cache IPs even before the
        event) is always routed away.  A region without Apple capacity
        gets 0.0.
        """
        ceiling = 1.0 - self.min_third_party_share
        usable = self.capacity(region) * self.target_utilization
        if usable <= 0.0:
            return 0.0
        demand = self.demand(region)
        if demand * ceiling <= usable:
            return ceiling
        return usable / demand

    def offload_gbps(self, region: MappingRegion) -> float:
        """The demand volume currently spilled to third parties."""
        return self.demand(region) * (1.0 - self.apple_share(region))



@dataclass(frozen=True)
class OffloadCnamePolicy:
    """The ``appldnld.g.applimg.com`` decision (step 2 of Figure 2).

    Keeps ``controller.apple_share`` of clients on Apple's GSLB names
    (``{a|b}.gslb.applimg.com``) and redirects the rest to the region's
    third-party selection name.  Selection is sticky per 15 s bucket,
    matching the measured TTL: a client whose draw falls under its
    region's share gets the GSLB name picked by a second draw (over
    ``"gslb"``), everyone else the regional ``ios8-{region}-lb`` name.
    """

    controller: MetaCdnController
    gslb_targets: tuple[str, ...] = (NAMES.gslb_a, NAMES.gslb_b)
    ttl: int = 15
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_ttl(self.ttl)

    def bind(self, name: str, now: float) -> Answer:
        ttl = self.ttl
        draw = sticky_draw(name, now, ttl, "")
        pick = sticky_draw("gslb", now, ttl, "")
        answers = cname_table(self._tables, name, ttl)
        apple = [answers[target] for target in self.gslb_targets]
        count = len(apple)
        controller = self.controller
        # Per region (Apple share, third-party answer), on first ask: a
        # live query needs one region, a campaign tick all of them.
        regions: dict = {}

        def answer(context: QueryContext) -> tuple[ResourceRecord, ...]:
            region = context.region
            held = regions.get(region)
            if held is None:
                held = regions[region] = (
                    controller.apple_share(region), answers[NAMES.ios8_lb(region)]
                )
            if draw(context) < held[0]:
                return apple[int(pick(context) * count)]
            return held[1]

        return answer


@dataclass(frozen=True)
class AkamaiHandoverPolicy:
    """The ``appldnld2.apple.com.edgesuite.net`` hop with the rollout change.

    Normally a CNAME to ``a1271.gi3.akamai.net``.  Six hours into the
    iOS 11 rollout (Sep 19 around 23h UTC) Akamai added
    ``a1015.gi3.akamai.net`` for requests arriving via the EU load
    balancer; from ``secondary_from`` onwards, EU clients split between
    the two handover names (:data:`AKAMAI_SECONDARY_SHARE` of them get
    the secondary).
    """

    primary: str = NAMES.akamai_primary
    secondary: str = NAMES.akamai_secondary
    secondary_from: Optional[float] = None  # simulation seconds; None = never
    ttl: int = 300
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_ttl(self.ttl)

    def bind(self, name: str, now: float) -> Answer:
        ttl = self.ttl
        answers = cname_table(self._tables, name, ttl)
        primary = answers[self.primary]
        if self.secondary_from is None or not now >= self.secondary_from:
            return lambda context: primary
        secondary = answers[self.secondary]
        draw = sticky_draw(name, now, ttl, "")
        share, eu = AKAMAI_SECONDARY_SHARE, MappingRegion.EU

        def answer(context: QueryContext) -> tuple[ResourceRecord, ...]:
            if context.region is eu and draw(context) < share:
                return secondary
            return primary

        return answer
