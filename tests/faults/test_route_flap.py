"""Route-flap faults: catchments move, health probes see nothing.

The whole point of the ``route-withdraw`` / ``route-prepend`` kinds is
that they act purely on the routing plane — ``CdnHealthMonitor``
probes the member CDNs over DNS/HTTP, which an anycast path change
does not fail, so a flap must shift traffic *without* a single
unhealthy transition or DNS re-steer.  The chaos drill inverts the
usual acceptance accordingly.
"""

import pytest

from repro.anycast import AnycastPlane, AnycastSite, ClientGroup
from repro.faults import FaultInjector, FaultKind, FaultSchedule, FaultWindow
from repro.faults.health import CdnHealthMonitor
from repro.net.geo import Continent, Coordinates
from repro.net.ipv4 import IPv4Address, IPv4Prefix
from repro.obs import MetricsRegistry


def site(site_id: str, continent: Continent, lat: float, lon: float, vip: str):
    return AnycastSite(
        site_id=site_id,
        coordinates=Coordinates(lat, lon),
        continent=continent,
        backend_vip=IPv4Address.parse(vip),
        capacity_gbps=100.0,
    )


def group(name: str, prefix: str, continent: Continent, lat: float, lon: float):
    return ClientGroup(
        name=name,
        prefix=IPv4Prefix.parse(prefix),
        continent=continent,
        coordinates=Coordinates(lat, lon),
    )


@pytest.fixture
def plane():
    sites = [
        site("defra-1", Continent.EUROPE, 50.11, 8.68, "17.253.1.1"),
        site("uklon-1", Continent.EUROPE, 51.51, -0.13, "17.253.2.1"),
        site("usdal-1", Continent.NORTH_AMERICA, 32.78, -96.8, "17.253.3.1"),
    ]
    groups = [
        group(f"eu-{i}", f"89.0.{i}.0/24", Continent.EUROPE, 50.0, 8.0 + i)
        for i in range(8)
    ]
    schedule = FaultSchedule([
        FaultWindow(100.0, 200.0, "defra-1", FaultKind.ROUTE_WITHDRAW),
    ])
    return AnycastPlane(sites, groups, schedule=schedule)


class TestFlapShiftsCatchments:
    def test_withdraw_moves_affected_groups(self, plane):
        before = plane.catchment_map(50.0)
        during = plane.catchment_map(150.0)
        after = plane.catchment_map(250.0)
        moved = before.diff(during)
        # Every group that was on the withdrawn site moved off it...
        assert moved
        assert all(during.site_of_group(name) != "defra-1" for name in moved)
        assert "defra-1" not in during.share_by_site()
        # ...and the map reverts bit-identically when the window closes.
        assert after.signature == before.signature
        assert before.diff(after) == ()

    def test_unaffected_groups_keep_their_site(self, plane):
        before = plane.catchment_map(50.0)
        during = plane.catchment_map(150.0)
        moved = set(before.diff(during))
        for client in plane.groups:
            if client.name not in moved:
                assert (
                    before.site_of_group(client.name)
                    == during.site_of_group(client.name)
                )

    def test_prepend_demotes_without_removing(self):
        sites = [
            site("defra-1", Continent.EUROPE, 50.11, 8.68, "17.253.1.1"),
            site("uklon-1", Continent.EUROPE, 51.51, -0.13, "17.253.2.1"),
        ]
        groups = [
            group(f"eu-{i}", f"89.0.{i}.0/24", Continent.EUROPE, 50.0, 8.0)
            for i in range(6)
        ]
        schedule = FaultSchedule([
            FaultWindow(100.0, 200.0, "defra-1", FaultKind.ROUTE_PREPEND,
                        severity=3.0),
        ])
        plane = AnycastPlane(sites, groups, schedule=schedule)
        during = plane.catchment_map(150.0)
        # The prepended site loses best-path everywhere (longer AS
        # path) but is still announced.
        assert during.share_by_site() == {
            "uklon-1": pytest.approx(1.0)
        }
        assert len(plane.candidate_routes(150.0)) == 2

    def test_observe_prices_the_shift(self, plane):
        plane.observe(50.0, demand_gbps=100.0)
        tick = plane.observe(150.0, demand_gbps=100.0)
        assert tick.broken_groups
        assert tick.shifted_share > 0.0
        assert tick.shifted_gbps == pytest.approx(
            tick.shifted_share * 100.0
        )
        back = plane.observe(250.0, demand_gbps=100.0)
        assert set(back.broken_groups) == set(tick.broken_groups)


class TestInjectorRouteHelpers:
    def test_route_kinds_parse(self):
        schedule = FaultSchedule.parse(
            ["route-withdraw@defra-1:100-200",
             "route-prepend@uklon-1:100-200:3"]
        )
        kinds = {window.kind for window in schedule}
        assert kinds == {FaultKind.ROUTE_WITHDRAW, FaultKind.ROUTE_PREPEND}


class TestHealthInvisibility:
    def test_flap_never_fails_a_health_probe(self):
        """cdn_down ignores route kinds entirely, even target '*'."""
        schedule = FaultSchedule([
            FaultWindow(0.0, 1000.0, "*", FaultKind.ROUTE_WITHDRAW),
            FaultWindow(0.0, 1000.0, "*", FaultKind.ROUTE_PREPEND),
        ])
        injector = FaultInjector(schedule, metrics=MetricsRegistry())
        monitor = CdnHealthMonitor(metrics=MetricsRegistry())
        for now in range(0, 1000, 5):
            injector.set_time(float(now))
            monitor.tick(
                float(now),
                lambda member, at: not injector.cdn_down(member, key=at),
            )
        assert all(monitor.is_healthy(member) for member in monitor.members)

    def test_blackout_still_fails_probes(self):
        """Sanity: the inversion is specific to route kinds."""
        schedule = FaultSchedule([
            FaultWindow(0.0, 1000.0, "Akamai", FaultKind.CDN_BLACKOUT),
        ])
        injector = FaultInjector(schedule, metrics=MetricsRegistry())
        monitor = CdnHealthMonitor(metrics=MetricsRegistry())
        for now in range(0, 100, 5):
            injector.set_time(float(now))
            monitor.tick(
                float(now),
                lambda member, at: not injector.cdn_down(member, key=at),
            )
        assert monitor.is_healthy("Akamai") is False


def test_chaos_config_accepts_anycast_steering():
    from repro.faults.chaos import ChaosConfig, anycast_drill_schedule

    config = ChaosConfig(steering="anycast")
    assert config.steering == "anycast"
    with pytest.raises(ValueError):
        ChaosConfig(steering="multicast")
    drill = anycast_drill_schedule()
    windows = list(drill)
    assert len(windows) == 1
    assert windows[0].kind is FaultKind.ROUTE_WITHDRAW
    assert windows[0].target == "itmil-1"  # the busiest catchment
