"""The September 2017 scenario: everything the paper measured, wired up.

This module instantiates the complete world model:

* the Apple Meta-CDN estate (own CDN + Akamai + Limelight + the Figure 2
  DNS chain, including the ``a1015`` rollout change six hours in);
* the iOS 11 demand model (baselines, the Sep 19 17h UTC surge, the
  Oct 31 iOS 11.1 echo);
* the Tier-1 European eyeball ISP: peering links to Apple, Akamai and
  Limelight plus the anonymised transit neighbours A-D and a tail of
  small peers, a BGP view routing every CDN prefix, and the Limelight
  "overflow cluster" — caches in a hosting AS behind transit D that
  only enter rotation under flash-crowd exposure (Section 5.4);
* RIPE-Atlas-style probe sets (global and in-ISP) with their campaigns.

Scale knobs default to laptop-size (fewer probes, coarser ticks than
the real campaigns); the mechanisms are identical, and EXPERIMENTS.md
records the scaling factors next to each reproduced figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from ..apple.deployment import AppleCdn
from ..apple.mapping import NAMES, MetaCdnEstate, build_meta_cdn
from ..apple.policy import MetaCdnController
from ..atlas.campaign import DnsCampaign, TracerouteCampaign
from ..atlas.awsvm import AwsVmCampaign, build_aws_vantages
from ..atlas.placement import place_global_probes, place_isp_probes
from ..atlas.results import MeasurementStore
from ..atlas.traceroute import SimulatedTracer
from ..cdn.cache import ContentCache
from ..cdn.deployment import CdnDeployment, ExposureController
from ..cdn.server import CacheServer, ServerFunction, ServerRole
from ..cdn.thirdparty import AKAMAI_PLAN, LIMELIGHT_PLAN, build_third_party
from ..dns.policies import WeightSchedule, stable_fraction
from ..isp.bgp import BgpRib, BgpRoute
from ..isp.netflow import NetflowCollector
from ..isp.snmp import SnmpCounters
from ..isp.topology import EyeballIsp, PeeringLink
from ..net.asys import AS_AKAMAI, AS_APPLE, AS_LIMELIGHT, ASN, ASRegistry
from ..net.geo import MappingRegion
from ..net.ipv4 import IPv4Address, IPv4Prefix
from ..net.locode import LocodeDatabase
from ..workload.adoption import AdoptionModel
from ..workload.flashcrowd import CdnBackground, UpdateDemandModel
from ..workload.timeline import TIMELINE, MeasurementWindow

__all__ = ["ScenarioConfig", "Sep2017Scenario", "OVERFLOW_CLUSTER_PREFIX",
           "AS_HOSTER_AKAMAI", "AS_HOSTER_LIMELIGHT",
           "AS_TRANSIT_A", "AS_TRANSIT_B", "AS_TRANSIT_C", "AS_TRANSIT_D", "AS_ISP"]

# Anonymised ASs, mirroring the paper's A-D naming.
AS_ISP = ASN(64496)
AS_TRANSIT_A = ASN(65001)
AS_TRANSIT_B = ASN(65002)
AS_TRANSIT_C = ASN(65003)
AS_TRANSIT_D = ASN(65004)
AS_HOSTER_AKAMAI = ASN(64512)  # hosts "Akamai other AS" caches
AS_HOSTER_LIMELIGHT = ASN(64513)  # hosts "Limelight other AS" caches

_ISP_CUSTOMER_PREFIX = IPv4Prefix.parse("89.0.0.0/12")
_OVERFLOW_CLUSTER_PREFIX = IPv4Prefix.parse("208.111.160.0/19")
# Public alias: the Limelight "overflow cluster" behind transit D
# (Section 5.4); run summaries report its share of ISP ingress.
OVERFLOW_CLUSTER_PREFIX = _OVERFLOW_CLUSTER_PREFIX

# Metros where the third-party fleets deploy (worldwide coverage, so
# South America and Africa — where Apple has no sites — are served).
_THIRD_PARTY_METROS = (
    "usnyc", "uslax", "uschi", "usmia", "usdal",
    "defra", "uklon", "nlams", "frpar", "esmad", "plwaw",
    "jptyo", "sgsin", "ausyd", "inbom",
    "brsao", "arbue", "zajnb", "egcai",
)


# ----------------------------------------------------------------------
# Calibration: the values behind the reproduced figures.  No run, test
# or benchmark varies them, so they are constants here, not knobs on
# :class:`ScenarioConfig`.
# ----------------------------------------------------------------------

AWS_INTERVAL = 3600.0                  # AWS VM detailed sweeps
TRACEROUTE_INTERVAL = 21600.0          # paper: hourly
TRACEROUTE_MAX_TARGETS = 32

APPLE_EDGE_GBPS = 14.0
AKAMAI_TAU_SECONDS = 21600.0           # the observed ~6 h EU ramp
LIMELIGHT_TAU_SECONDS = 5400.0
EXPOSURE_MIN_SERVERS = 8
EXPOSURE_HEADROOM = 1.3
LIMELIGHT_SERVERS_PER_METRO = 18       # sized so the AS-D cluster
# only activates under flash-crowd exposure (see Figure 8)
LIMELIGHT_EXPOSURE_GBPS_PER_SERVER = 8.0
LIMELIGHT_RELEASE_TAU_SECONDS = 100_000.0
AKAMAI_EXPOSURE_GBPS_PER_SERVER = 5.0
AKAMAI_DAY1_WEIGHT = 0.32              # third-party split on Sep 19

IOS_11_1_SURGE_SCALE = 0.35            # the Oct 31 echo in Figure 5

# Each CDN's unrelated steady traffic into the ISP (Gbps).
BACKGROUND_GBPS = {
    "Apple": 55.0,
    "Akamai": 430.0,
    "Limelight": 45.0,
}
OVERFLOW_CLUSTER_SIZE = 32             # Limelight caches behind AS D
PRECACHE_FILL_GBPS = 60.0              # the Sep 19 AS-A fill spike
PRECACHE_FILL_LEAD_SECONDS = 3 * 3600.0
PRECACHE_FILL_TAIL_SECONDS = 7 * 3600.0


@dataclass
class ScenarioConfig:
    """The scale, demand and mode knobs of the Sep 2017 scenario.

    Every field here is set by some run, test or benchmark; the
    calibration nobody varies is the block of constants above.
    """

    # --- scale (laptop defaults; the paper's real values in comments) ---
    global_probe_count: int = 160          # paper: 800
    isp_probe_count: int = 80              # paper: 400
    global_dns_interval: float = 1800.0    # paper: 300 s
    isp_dns_interval: float = 43200.0      # paper: 43200 s (12 h)
    traceroute_probe_count: int = 8        # probes running traceroutes
    netflow_sampling: int = 1              # 1 = exact records; paper: ~1/1000

    # --- capacities -----------------------------------------------------
    target_utilization: float = 0.95
    min_third_party_share: float = 0.35

    # --- demand (region totals, Gbps) ------------------------------------
    baseline_gbps: dict = field(
        default_factory=lambda: {
            MappingRegion.EU: 800.0,
            MappingRegion.US: 2200.0,
            MappingRegion.APAC: 700.0,
        }
    )
    surge_peak_gbps: dict = field(
        default_factory=lambda: {
            MappingRegion.EU: 4200.0,
            MappingRegion.US: 3800.0,
            MappingRegion.APAC: 1400.0,
        }
    )
    surge_decay_seconds: float = 130_000.0

    # --- the eyeball ISP --------------------------------------------------
    isp_share_of_eu: float = 0.12          # the ISP's slice of EU demand

    # --- event times (defaults from the Timeline) -------------------------
    a1015_delay_seconds: float = 6 * 3600.0

    # --- measurement stores (columnar segments + spill) -------------------
    store_segment_rows: int = 8192         # rows per sealed segment
    store_memory_budget_bytes: Optional[int] = None  # None = never spill
    store_spill_dir: Optional[str] = None  # None = temp dir on first spill

    @classmethod
    def from_adoption(cls, model: "AdoptionModel", **overrides) -> "ScenarioConfig":
        """Derive the surge amplitudes from a population adoption model.

        The default config's hand-calibrated peaks agree with the
        default :class:`~repro.workload.adoption.AdoptionModel` within a
        few percent; this constructor makes the derivation explicit and
        lets what-if studies vary populations or adoption shares.
        """
        config = cls(**overrides)
        config.surge_peak_gbps = model.surge_peaks()
        config.surge_decay_seconds = model.decay_seconds
        return config


class Sep2017Scenario:
    """The fully wired world: estate, ISP, probes, campaigns, demand."""

    def __init__(self, config: Optional[ScenarioConfig] = None) -> None:
        self.config = config if config is not None else ScenarioConfig()
        cfg = self.config
        for count in ("global_probe_count", "isp_probe_count"):
            if getattr(cfg, count) <= 0:
                raise ValueError(f"{count} must be positive")
        self.timeline = timeline = TIMELINE
        self.locations = LocodeDatabase.builtin()
        self.registry = ASRegistry()

        self.estate = self._build_estate()
        self.isp, self.rib = self._build_isp()
        self._register_asns()
        self.operator_by_address = self._index_operators()

        self.demand = self._build_demand()
        self.backgrounds = {
            operator: CdnBackground(mean_gbps)
            for operator, mean_gbps in BACKGROUND_GBPS.items()
        }

        self.netflow = NetflowCollector(sampling_rate=self.config.netflow_sampling)
        self.snmp = SnmpCounters(bin_seconds=3600.0)

        self.global_probes = place_global_probes(
            self.estate.servers,
            count=self.config.global_probe_count,
            locations=self.locations,
        )
        self.isp_probes = place_isp_probes(
            self.estate.servers,
            isp_asn=AS_ISP,
            customer_prefix=_ISP_CUSTOMER_PREFIX,
            count=self.config.isp_probe_count,
            country="de",
            locations=self.locations,
        )
        self.global_campaign = DnsCampaign(
            probes=self.global_probes,
            target=NAMES.entry_point,
            interval=self.config.global_dns_interval,
            window=timeline.ripe_global_window,
            store=self._measurement_store("ripe-global"),
            name="ripe-global",
        )
        self.isp_campaign = DnsCampaign(
            probes=self.isp_probes,
            target=NAMES.entry_point,
            interval=self.config.isp_dns_interval,
            window=timeline.ripe_isp_window,
            store=self._measurement_store("ripe-isp"),
            name="ripe-isp",
        )
        self.aws_vantages = build_aws_vantages(
            self.estate.servers, locations=self.locations
        )
        self.aws_campaign = AwsVmCampaign(
            vantages=self.aws_vantages,
            target=NAMES.entry_point,
            interval=AWS_INTERVAL,
            window=timeline.aws_window,
            fetch=self.http_fetch,
            name="aws-vms",
        )
        server_coordinates = {
            placed.server.address: placed.location.coordinates
            for deployment in self.estate.deployments.values()
            for placed in deployment.servers
        }
        self.tracer = SimulatedTracer(
            self.registry, server_coordinates, transit_asn=AS_TRANSIT_A
        )
        self.traceroute_campaign = TracerouteCampaign(
            probes=self.global_probes[: self.config.traceroute_probe_count],
            dns_store=self.global_campaign.store,
            interval=TRACEROUTE_INTERVAL,
            window=timeline.ripe_global_window,
            tracer=self.tracer.sweep,
            store=self._measurement_store("traceroute"),
            max_targets_per_tick=TRACEROUTE_MAX_TARGETS,
            name="traceroute",
        )
        # What a run fires, in firing order; the two DNS campaigns are
        # the ones a sharded run splits over its workers.
        self.dns_campaigns = (self.global_campaign, self.isp_campaign)
        self.campaigns = (
            *self.dns_campaigns, self.aws_campaign, self.traceroute_campaign
        )
        self.stores = tuple(
            campaign.store
            for campaign in (*self.dns_campaigns, self.traceroute_campaign)
        )

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def _measurement_store(self, name: str) -> MeasurementStore:
        """A campaign store wired to the config's columnar/spill knobs.

        Each store spills into its own subdirectory of
        ``store_spill_dir`` so concurrent campaigns never collide on
        segment file names.
        """
        config = self.config
        spill_dir = (
            str(Path(config.store_spill_dir) / name)
            if config.store_spill_dir is not None
            else None
        )
        return MeasurementStore(
            segment_rows=config.store_segment_rows,
            memory_budget_bytes=config.store_memory_budget_bytes,
            spill_dir=spill_dir,
            name=name,
        )

    def _build_estate(self) -> MetaCdnEstate:
        config = self.config
        apple = AppleCdn.build(self.locations, edge_bx_gbps=APPLE_EDGE_GBPS)
        metros = [self.locations.get(code) for code in _THIRD_PARTY_METROS]

        akamai = build_third_party(
            AKAMAI_PLAN,
            metros,
            other_as=AS_HOSTER_AKAMAI,
            exposure_factory=lambda: ExposureController(
                per_server_gbps=AKAMAI_EXPOSURE_GBPS_PER_SERVER,
                min_servers=EXPOSURE_MIN_SERVERS,
                headroom=EXPOSURE_HEADROOM,
                tau_seconds=AKAMAI_TAU_SECONDS,
            ),
        )
        limelight_plan = replace(
            LIMELIGHT_PLAN, servers_per_metro=LIMELIGHT_SERVERS_PER_METRO
        )
        limelight = build_third_party(
            limelight_plan,
            metros,
            other_as=AS_HOSTER_LIMELIGHT,
            exposure_factory=lambda: ExposureController(
                per_server_gbps=LIMELIGHT_EXPOSURE_GBPS_PER_SERVER,
                min_servers=EXPOSURE_MIN_SERVERS,
                headroom=EXPOSURE_HEADROOM,
                tau_seconds=LIMELIGHT_TAU_SECONDS,
                release_tau_seconds=LIMELIGHT_RELEASE_TAU_SECONDS,
            ),
        )
        self._add_overflow_cluster(limelight)

        capacity = {
            region: apple.deployment.region_capacity_gbps(region)
            for region in MappingRegion
        }
        controller = MetaCdnController(
            capacity,
            target_utilization=config.target_utilization,
            min_third_party_share=config.min_third_party_share,
        )
        return build_meta_cdn(
            apple,
            akamai,
            limelight,
            controller,
            third_party_weights=self._third_party_weights(),
            a1015_from=self.timeline.ios_11_0_release + config.a1015_delay_seconds,
        )

    def _add_overflow_cluster(self, limelight: CdnDeployment) -> None:
        """The Limelight caches "in or behind AS D" (Section 5.4).

        Hostnames start with ``zz`` so they sort last in the exposure
        order: they only enter DNS rotation when flash-crowd demand
        pushes the active count past the regular fleet — exactly the
        sudden, previously unseen ingress the paper describes.
        """
        warsaw = self.locations.get("plwaw")
        for index in range(OVERFLOW_CLUSTER_SIZE):
            server = CacheServer(
                hostname=f"zz-overflow-{index:03d}.waw.llnw.net",
                address=_OVERFLOW_CLUSTER_PREFIX.host(index + 1),
                role=ServerRole(ServerFunction.EDGE),
                asn=AS_HOSTER_LIMELIGHT,
                capacity_gbps=LIMELIGHT_PLAN.per_server_gbps,
                cache=ContentCache(4 << 40),
            )
            limelight.add_server(server, warsaw)

    def _third_party_weights(self) -> dict[MappingRegion, WeightSchedule]:
        """The operator-controlled distribution shares over the event.

        Akamai participates in the EU offload only on release day (its
        traffic share vanishes from Sep 20 on, Figure 7); Limelight
        carries the remainder throughout.
        """
        release = self.timeline.ios_11_0_release
        akamai_out = release + 11 * 3600.0  # Akamai only on release day
        akamai_back = release + 6 * 86400.0
        akamai_weight = AKAMAI_DAY1_WEIGHT
        weights: dict[MappingRegion, WeightSchedule] = {}
        for region in MappingRegion:
            limelight_name = NAMES.limelight_handover(region)
            baseline = {
                NAMES.edgesuite: akamai_weight,
                limelight_name: 1.0 - akamai_weight,
            }
            if region is MappingRegion.EU:
                weights[region] = WeightSchedule(
                    [
                        (float("-inf"), baseline),
                        (akamai_out, {limelight_name: 1.0}),
                        (akamai_back, baseline),
                    ]
                )
            else:
                weights[region] = WeightSchedule.constant(baseline)
        return weights

    def _build_demand(self) -> UpdateDemandModel:
        config = self.config
        demand = UpdateDemandModel(baseline_gbps=dict(config.baseline_gbps))
        demand.add_release(
            self.timeline.ios_11_0_release,
            peak_gbps=dict(config.surge_peak_gbps),
            decay_seconds=config.surge_decay_seconds,
        )
        demand.add_release(
            self.timeline.ios_11_1_release,
            peak_gbps={
                region: peak * IOS_11_1_SURGE_SCALE
                for region, peak in config.surge_peak_gbps.items()
            },
            decay_seconds=config.surge_decay_seconds,
        )
        return demand

    def _build_isp(self) -> tuple[EyeballIsp, BgpRib]:
        links: list[PeeringLink] = [
            PeeringLink("apple-1", "br-fra-1", AS_APPLE, 400.0),
            PeeringLink("apple-2", "br-dus-1", AS_APPLE, 400.0),
            PeeringLink("akamai-1", "br-fra-1", AS_AKAMAI, 400.0),
            PeeringLink("akamai-2", "br-ber-1", AS_AKAMAI, 400.0),
            PeeringLink("akamai-3", "br-muc-1", AS_AKAMAI, 400.0),
            PeeringLink("akamai-cache", "internal", AS_AKAMAI, 200.0, is_cache_link=True),
            PeeringLink("limelight-1", "br-fra-1", AS_LIMELIGHT, 300.0),
            PeeringLink("limelight-2", "br-ams-1", AS_LIMELIGHT, 300.0),
            PeeringLink("transit-a-1", "br-fra-1", AS_TRANSIT_A, 100.0),
            PeeringLink("transit-a-2", "br-ber-1", AS_TRANSIT_A, 100.0),
            PeeringLink("transit-b-1", "br-dus-1", AS_TRANSIT_B, 100.0),
            PeeringLink("transit-b-2", "br-muc-1", AS_TRANSIT_B, 100.0),
            PeeringLink("transit-c-1", "br-fra-1", AS_TRANSIT_C, 100.0),
            PeeringLink("transit-c-2", "br-ams-1", AS_TRANSIT_C, 100.0),
            PeeringLink("transit-d-1", "br-ber-1", AS_TRANSIT_D, 25.0),
            PeeringLink("transit-d-2", "br-fra-1", AS_TRANSIT_D, 25.0),
            PeeringLink("transit-d-3", "br-muc-1", AS_TRANSIT_D, 25.0),
            PeeringLink("transit-d-4", "br-ams-1", AS_TRANSIT_D, 25.0),
        ]
        for index in range(8):  # the ~40 small peers, grouped as "other"
            links.append(
                PeeringLink(
                    f"other-{index + 1}",
                    f"br-ix-{index % 3 + 1}",
                    ASN(65010 + index),
                    50.0,
                )
            )
        routes = [
            # Apple: direct peering.
            BgpRoute(
                IPv4Prefix.parse("17.0.0.0/8"),
                as_path=(AS_APPLE,),
                link_ids=("apple-1", "apple-2"),
            ),
            # Akamai own AS: direct links plus the in-network cache link.
            BgpRoute(
                AKAMAI_PLAN.own_prefix,
                as_path=(AS_AKAMAI,),
                link_ids=("akamai-1", "akamai-2", "akamai-3", "akamai-cache"),
            ),
            # "Akamai other AS" caches: hosted, reached via transit A.
            BgpRoute(
                AKAMAI_PLAN.other_as_prefix,
                as_path=(AS_TRANSIT_A, AS_HOSTER_AKAMAI),
                link_ids=("transit-a-1", "transit-a-2"),
            ),
            # Limelight own AS: direct peering.
            BgpRoute(
                LIMELIGHT_PLAN.own_prefix,
                as_path=(AS_LIMELIGHT,),
                link_ids=("limelight-1", "limelight-2"),
            ),
        ]
        # "Limelight other AS" caches: spread over transits A/B/C with
        # host routes cycling per cache, so whichever subset of hosted
        # caches is active, the ingress mix stays stable (the pre-event
        # A/B/C balance of Figure 8).
        transit_cycle = (
            (AS_TRANSIT_A, ("transit-a-1", "transit-a-2")),
            (AS_TRANSIT_B, ("transit-b-1", "transit-b-2")),
            (AS_TRANSIT_C, ("transit-c-1", "transit-c-2")),
        )
        hosted = [
            placed.server.address
            for placed in self.estate.limelight.servers
            if placed.server.asn == AS_HOSTER_LIMELIGHT
            and not _OVERFLOW_CLUSTER_PREFIX.contains(placed.server.address)
        ]
        for address in sorted(hosted):
            pick = int(stable_fraction("llnw-transit", address) * len(transit_cycle))
            transit_asn, link_ids = transit_cycle[pick]
            routes.append(
                BgpRoute(
                    IPv4Prefix.containing(address, 32),
                    as_path=(transit_asn, AS_HOSTER_LIMELIGHT),
                    link_ids=link_ids,
                )
            )
        routes += [
            # Covering route for any hosted Limelight address beyond the
            # /22 (larger fleets); more-specific /28s and the cluster /19 win.
            BgpRoute(
                LIMELIGHT_PLAN.other_as_prefix,
                as_path=(AS_TRANSIT_A, AS_HOSTER_LIMELIGHT),
                link_ids=("transit-a-1", "transit-a-2"),
            ),
            # The overflow cluster: behind AS D, over two of its four links.
            BgpRoute(
                _OVERFLOW_CLUSTER_PREFIX,
                as_path=(AS_TRANSIT_D, AS_HOSTER_LIMELIGHT),
                link_ids=("transit-d-1", "transit-d-2"),
            ),
        ]
        isp = EyeballIsp(AS_ISP, "EU-Eyeball-T1", _ISP_CUSTOMER_PREFIX, links)
        return isp, BgpRib(routes)

    def _register_asns(self) -> None:
        registry = self.registry
        registry.create(AS_APPLE, "Apple", [IPv4Prefix.parse("17.0.0.0/8")])
        registry.create(AS_AKAMAI, "Akamai", [AKAMAI_PLAN.own_prefix])
        registry.create(AS_LIMELIGHT, "Limelight", [LIMELIGHT_PLAN.own_prefix])
        registry.create(
            AS_HOSTER_AKAMAI, "Hosting (Akamai caches)",
            [AKAMAI_PLAN.other_as_prefix],
        )
        registry.create(
            AS_HOSTER_LIMELIGHT, "Hosting (Limelight caches)",
            [LIMELIGHT_PLAN.other_as_prefix, _OVERFLOW_CLUSTER_PREFIX],
        )
        registry.create(AS_ISP, "EU-Eyeball-T1", [_ISP_CUSTOMER_PREFIX])
        for asn, label in (
            (AS_TRANSIT_A, "Transit A"),
            (AS_TRANSIT_B, "Transit B"),
            (AS_TRANSIT_C, "Transit C"),
            (AS_TRANSIT_D, "Transit D"),
        ):
            registry.create(asn, label)

    def _index_operators(self) -> dict[IPv4Address, str]:
        index: dict[IPv4Address, str] = {}
        for operator, deployment in self.estate.deployments.items():
            for placed in deployment.servers:
                index[placed.server.address] = operator
        return index

    # ------------------------------------------------------------------
    # lookups used by the engine and analyses
    # ------------------------------------------------------------------

    def operator_of(self, address: IPv4Address) -> Optional[str]:
        """The CDN operating ``address``, if it is a known cache."""
        return self.operator_by_address.get(address)

    def is_fresh(self) -> bool:
        """Whether no run state has accumulated yet.

        A sharded run rebuilds its worker replicas from a spec, so it
        must start from a just-constructed scenario; ``run_sharded``
        checks this first.
        """
        return not (
            any(len(store) for store in self.stores)
            or len(self.netflow)
            or any(c.cadence.next_due is not None for c in self.campaigns)
        )

    def http_fetch(self, address, request, size: int = 2_800_000_000):
        """Fetch ``request`` from whichever fleet owns ``address``.

        Routes Apple vip addresses through the full vip/edge-bx/edge-lx
        hierarchy and third-party addresses through their flat delivery
        model; returns ``None`` for unknown addresses.  This is the
        fetcher behind the AWS-VM availability checks.
        """
        return self.estate.serve_at(address, request, size)

    def precache_fill(self, now: float) -> tuple[list[IPv4Address], float]:
        """The Sep 19 pre-cache fill (Section 5.4's AS-A spike).

        Around the release, Limelight distributes the new images to its
        hosted caches; from the ISP's perspective that is Limelight
        traffic arriving via transit A before the user-driven delivery
        ramps up.  Returns the fill sources and current fill rate
        (empty/0 outside the fill window).
        """
        release = self.timeline.ios_11_0_release
        start = release - PRECACHE_FILL_LEAD_SECONDS
        end = release + PRECACHE_FILL_TAIL_SECONDS
        if not start <= now < end:
            return [], 0.0
        sources: list[IPv4Address] = []
        for placed in self.estate.limelight.servers:
            if placed.server.asn != AS_HOSTER_LIMELIGHT:
                continue
            if _OVERFLOW_CLUSTER_PREFIX.contains(placed.server.address):
                continue
            route = self.rib.lookup(placed.server.address)
            if route is not None and route.neighbor_asn == AS_TRANSIT_A:
                sources.append(placed.server.address)
            if len(sources) >= 8:
                break
        return sources, PRECACHE_FILL_GBPS

    def handover_operator(self, name: str) -> Optional[str]:
        """Map a third-party handover DNS name to its operator."""
        names = self.estate.names
        if name == names.edgesuite:
            return "Akamai"
        if name in (names.limelight_us_eu, names.limelight_apac):
            return "Limelight"
        return None

    @property
    def traffic_window(self) -> MeasurementWindow:
        """The BGP/Netflow/SNMP collection window (Sep 15-23)."""
        return self.timeline.isp_traffic_window
