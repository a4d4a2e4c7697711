"""Tests for repro.simulation.scenario construction."""

import dataclasses

import pytest

from repro.cdn.thirdparty import LIMELIGHT_PLAN
from repro.net.asys import AS_AKAMAI, AS_APPLE, AS_LIMELIGHT
from repro.net.geo import MappingRegion
from repro.net.ipv4 import IPv4Address, IPv4Prefix
from repro.simulation import (
    AS_HOSTER_LIMELIGHT,
    AS_ISP,
    AS_TRANSIT_A,
    AS_TRANSIT_B,
    AS_TRANSIT_C,
    AS_TRANSIT_D,
    ScenarioConfig,
    Sep2017Scenario,
)
from repro.simulation.scenario import (
    LIMELIGHT_SERVERS_PER_METRO,
    OVERFLOW_CLUSTER_SIZE,
)
from repro.workload import TIMELINE


@pytest.fixture(scope="module")
def scenario():
    return Sep2017Scenario(ScenarioConfig(global_probe_count=20, isp_probe_count=10))


class TestScenarioConstruction:
    def test_apple_estate_is_figure3(self, scenario):
        assert scenario.estate.apple.site_count == 34
        assert scenario.estate.apple.edge_bx_count == 1072

    def test_probe_counts(self, scenario):
        assert len(scenario.global_probes) == 20
        assert len(scenario.isp_probes) == 10

    def test_isp_probes_inside_isp(self, scenario):
        for probe in scenario.isp_probes:
            assert probe.asn == AS_ISP
            assert scenario.isp.customer_prefix.contains(probe.address)

    def test_isp_has_all_neighbors(self, scenario):
        for asn in (AS_APPLE, AS_AKAMAI, AS_LIMELIGHT,
                    AS_TRANSIT_A, AS_TRANSIT_B, AS_TRANSIT_C, AS_TRANSIT_D):
            assert scenario.isp.is_direct_peer(asn), asn

    def test_as_d_has_four_links(self, scenario):
        assert len(scenario.isp.links_for(AS_TRANSIT_D)) == 4

    def test_every_cache_address_has_a_route(self, scenario):
        for operator, deployment in scenario.estate.deployments.items():
            for placed in deployment.servers:
                route = scenario.rib.lookup(placed.server.address)
                assert route is not None, (operator, str(placed.server.address))

    def test_overflow_cluster_routed_via_as_d(self, scenario):
        cluster = [
            placed
            for placed in scenario.estate.limelight.servers
            if placed.server.hostname.startswith("zz-overflow-")
        ]
        assert len(cluster) == OVERFLOW_CLUSTER_SIZE
        for placed in cluster:
            route = scenario.rib.lookup(placed.server.address)
            assert route.neighbor_asn == AS_TRANSIT_D
            assert route.origin_asn == AS_HOSTER_LIMELIGHT
            assert set(route.link_ids) == {"transit-d-1", "transit-d-2"}

    def test_cluster_sorts_last_in_exposure_order(self, scenario):
        placements = scenario.estate.limelight.servers_in_region(MappingRegion.EU)
        cluster_ranks = [
            rank
            for rank, placed in enumerate(placements)
            if placed.server.hostname.startswith("zz-overflow-")
        ]
        assert cluster_ranks == list(
            range(len(placements) - len(cluster_ranks), len(placements))
        )

    def test_hosted_limelight_spread_over_transits(self, scenario):
        neighbors = set()
        for placed in scenario.estate.limelight.servers:
            if placed.server.asn != AS_HOSTER_LIMELIGHT:
                continue
            if placed.server.hostname.startswith("zz-overflow-"):
                continue
            neighbors.add(scenario.rib.lookup(placed.server.address).neighbor_asn)
        assert {AS_TRANSIT_A, AS_TRANSIT_B, AS_TRANSIT_C} <= neighbors

    def test_operator_of(self, scenario):
        vip = scenario.estate.apple.sites[0].vip_addresses[0]
        assert scenario.operator_of(vip) == "Apple"
        assert scenario.operator_of(IPv4Address.parse("8.8.8.8")) is None

    def test_handover_operator(self, scenario):
        names = scenario.estate.names
        assert scenario.handover_operator(names.edgesuite) == "Akamai"
        assert scenario.handover_operator(names.limelight_us_eu) == "Limelight"
        assert scenario.handover_operator(names.limelight_apac) == "Limelight"
        assert scenario.handover_operator("unrelated.example") is None

    def test_precache_fill_window(self, scenario):
        release = TIMELINE.ios_11_0_release
        sources, gbps = scenario.precache_fill(release - 3600.0)
        assert sources and gbps > 0
        for source in sources:
            route = scenario.rib.lookup(source)
            assert route.neighbor_asn == AS_TRANSIT_A
        before, rate = scenario.precache_fill(release - 86400.0)
        assert before == [] and rate == 0.0
        after, rate = scenario.precache_fill(release + 86400.0)
        assert after == [] and rate == 0.0

    def test_akamai_weights_drop_after_day_one(self, scenario):
        weights = scenario.estate.third_party_weights[MappingRegion.EU]
        names = scenario.estate.names
        release = TIMELINE.ios_11_0_release
        assert names.edgesuite in weights.weights_at(release)
        assert names.edgesuite not in weights.weights_at(release + 2 * 86400.0)
        # non-EU regions keep the constant split
        us_weights = scenario.estate.third_party_weights[MappingRegion.US]
        assert names.edgesuite in us_weights.weights_at(release + 2 * 86400.0)

    def test_a1015_activation_time(self, scenario):
        # bound in the estate via AkamaiHandoverPolicy; check the config
        assert scenario.config.a1015_delay_seconds == 6 * 3600.0

    def test_limelight_fleet_uses_config_size(self, scenario):
        regular = [
            placed
            for placed in scenario.estate.limelight.servers
            if not placed.server.hostname.startswith("zz-overflow-")
        ]
        metros = {placed.location.code for placed in regular}
        assert len(regular) == len(metros) * LIMELIGHT_SERVERS_PER_METRO


# Calibration no run, test or benchmark ever varied: constants in
# scenario.py now, so passing one is a typo the dataclass refuses.
FORMER_KNOBS = (
    "aws_interval", "traceroute_interval", "traceroute_max_targets",
    "apple_edge_gbps", "akamai_tau_seconds", "limelight_tau_seconds",
    "exposure_min_servers", "exposure_headroom", "limelight_servers_per_metro",
    "limelight_exposure_gbps_per_server", "limelight_release_tau_seconds",
    "akamai_exposure_gbps_per_server", "akamai_day1_weight",
    "ios_11_1_surge_scale", "background_gbps", "overflow_cluster_size",
    "precache_fill_gbps", "precache_fill_lead_seconds",
    "precache_fill_tail_seconds", "fault_k_failures", "fault_recovery_probes",
    "fault_probe_interval", "fault_cooldown",
    # A deleted steering mode's share, and the POP cache size (now
    # repro.resolver.POP_CACHE_CAPACITY).
    "hybrid_dns_share", "public_resolver_cache_capacity",
    # The deleted pre-June-2017 Level3 mapping, and the ISP fan-out (now
    # repro.simulation.engine.ISP_SERVER_FANOUT).
    "include_level3", "isp_server_fanout",
    # The deleted anycast steering axis: DNS is the one steering plane.
    "steering",
    # The deleted engine resolver population: every probe resolves for
    # itself (the live edge keeps these on ClusterConfig).
    "resolver_population", "public_resolver_share", "public_resolver_ecs",
    "public_resolver_scope",
    # The deleted fault plane's seed for probabilistic severities.
    "fault_seed",
)


def test_calibration_constants_are_not_config_keywords():
    assert len(FORMER_KNOBS) == 33
    assert len(dataclasses.fields(ScenarioConfig)) == 16
    for keyword in FORMER_KNOBS:
        with pytest.raises(TypeError, match=keyword):
            ScenarioConfig(**{keyword: 1})
