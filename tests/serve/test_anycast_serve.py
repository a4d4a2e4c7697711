"""Live anycast steering: the wire-level cluster routes by catchment.

The simulation engine proves the steering math; these tests prove the
*serving* half of the tentpole — a running ``ServeCluster`` in
anycast mode re-routes each HTTP connection to the backend vip of the
client's catchment site, and a live ``route-withdraw`` window moves
connections between sites in real time.
"""

import asyncio

import pytest

from repro.faults import FaultKind, FaultSchedule, FaultWindow
from repro.obs import MetricsRegistry, use_registry
from repro.serve import (
    ClientDirectory,
    ClusterConfig,
    LoadConfig,
    ServeCluster,
)
from repro.simulation import ScenarioConfig, Sep2017Scenario

REQUESTS = 160


def drive(steering, faults=None, clock=None):
    """Boot a cluster in ``steering`` mode, drive load, return it."""
    registry = MetricsRegistry()
    with use_registry(registry):
        cluster = ServeCluster(
            config=ClusterConfig(
                servers_per_metro=2, steering=steering, faults=faults,
            ),
            directory=ClientDirectory.from_adoption(),
            metrics=registry,
            clock=clock,
        )

        async def scenario():
            async with cluster:
                return await cluster.drive(
                    LoadConfig(requests=REQUESTS, concurrency=8)
                )

        report = asyncio.run(scenario())
    return cluster, registry, report


def routed_by_site(registry):
    family = registry.get("serve_anycast_routed_total")
    if family is None:
        return {}
    return {
        values[0]: int(child.value)
        for values, child in family.children()
    }


class TestAnycastRouting:
    def test_connections_routed_by_catchment(self):
        cluster, registry, report = drive("anycast")
        per_site = routed_by_site(registry)
        assert report.errors == 0
        # Every request carried X-Client inside a known vantage, so
        # every one was catchment-routed, across multiple sites.
        assert sum(per_site.values()) == REQUESTS
        assert len(per_site) >= 2
        # And only to sites the plane actually assigns catchments to.
        live = set(cluster.anycast.catchment_map(0.0).share_by_site())
        assert set(per_site) <= live

    def test_dns_mode_has_no_plane_or_counter(self):
        cluster, registry, report = drive("dns")
        assert cluster.anycast is None
        assert report.errors == 0
        assert routed_by_site(registry) == {}

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(steering="multicast")

    @pytest.mark.parametrize("bad", [
        {"steering": "multicast"},
        # Exactly the share-weighted mix of the other two; deleted.
        {"steering": "hybrid"},
    ])
    def test_cluster_and_scenario_refuse_the_same_steering(self, bad):
        with pytest.raises(ValueError) as live:
            ClusterConfig(**bad)
        with pytest.raises(ValueError) as replay:
            Sep2017Scenario(ScenarioConfig(**bad))
        assert str(live.value) == str(replay.value)


class TestLiveRouteFlap:
    def test_withdraw_moves_live_connections(self):
        """Freeze the clock inside a flap window: the withdrawn site
        receives nothing, and health/failover stay silent."""
        now = [10.0]
        faults = None

        # Pick the busiest unfaulted site first (schedule-free plane).
        probe_cluster = ServeCluster(
            config=ClusterConfig(servers_per_metro=2, steering="anycast"),
            metrics=MetricsRegistry(),
        )
        baseline = probe_cluster.anycast.catchment_map(0.0)
        top = max(baseline.share_by_site().items(), key=lambda kv: kv[1])[0]

        faults = FaultSchedule([
            FaultWindow(100.0, 200.0, top, FaultKind.ROUTE_WITHDRAW),
        ])
        cluster, registry, report = drive(
            "anycast", faults=faults, clock=lambda: now[0]
        )
        assert report.errors == 0
        outside = routed_by_site(registry)
        assert top in outside

        now[0] = 150.0  # inside the window
        registry2 = MetricsRegistry()
        with use_registry(registry2):
            cluster2 = ServeCluster(
                config=ClusterConfig(
                    servers_per_metro=2, steering="anycast", faults=faults,
                ),
                directory=ClientDirectory.from_adoption(),
                metrics=registry2,
                clock=lambda: now[0],
            )

            async def scenario():
                async with cluster2:
                    return await cluster2.drive(
                        LoadConfig(requests=REQUESTS, concurrency=8)
                    )

            report2 = asyncio.run(scenario())
        during = routed_by_site(registry2)
        assert report2.errors == 0
        assert top not in during
        assert sum(during.values()) == REQUESTS
        # Routing-plane only: the member CDNs never looked unhealthy.
        monitor = cluster2.health_monitor
        assert monitor is not None
        assert all(monitor.is_healthy(member) for member in monitor.members)
