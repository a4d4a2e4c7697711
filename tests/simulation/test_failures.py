"""Failure-injection tests: links go down mid-event.

Not a paper figure, but the operational question behind Section 5.4:
when overflow saturates unexpected links, what happens if one fails?
The engine must redistribute onto the surviving links of the route
(which then saturate harder) and drop traffic when a route goes dark —
whether the link failed before the run or between two of its ticks.
"""

import pytest

from repro.isp import BgpRoute
from repro.net.asys import ASN
from repro.net.geo import MappingRegion
from repro.net.ipv4 import IPv4Prefix
from repro.simulation import ScenarioConfig, Sep2017Scenario, SimulationEngine
from repro.workload import TIMELINE

CLUSTER_PREFIX = IPv4Prefix.parse("208.111.160.0/19")


def _scenario():
    return Sep2017Scenario(
        ScenarioConfig(global_probe_count=2, isp_probe_count=2)
    )


class TestLinkFailureInjection:
    def test_failure_api(self):
        scenario = _scenario()
        isp = scenario.isp
        assert isp.is_up("transit-d-1")
        isp.fail_link("transit-d-1")
        assert not isp.is_up("transit-d-1")
        assert isp.is_up("transit-d-2")
        isp.restore_link("transit-d-1")
        assert isp.is_up("transit-d-1")
        with pytest.raises(KeyError):
            isp.fail_link("no-such-link")

    def test_up_links_filters(self):
        scenario = _scenario()
        scenario.isp.fail_link("transit-d-1")
        up = scenario.isp.up_links(["transit-d-1", "transit-d-2"])
        assert [link.link_id for link in up] == ["transit-d-2"]

    def test_survivor_absorbs_redistribution(self):
        """Failing one AS-D link shifts the cluster load to its peer."""
        # Warm up across the release so the AS-D cluster is active.
        window = (TIMELINE.at(9, 19, 12), TIMELINE.at(9, 20, 6))

        healthy = _scenario()
        SimulationEngine(healthy, step_seconds=1800.0).run(*window)

        degraded = _scenario()
        degraded.isp.fail_link("transit-d-1")
        SimulationEngine(degraded, step_seconds=1800.0).run(*window)

        def volume(scenario, link):
            return sum(v for _, v in scenario.snmp.series(link))

        assert volume(degraded, "transit-d-1") == 0
        assert volume(degraded, "transit-d-2") > volume(healthy, "transit-d-2")

    def test_dark_route_drops_traffic(self):
        """With both AS-D links down the cluster's traffic never arrives."""
        scenario = _scenario()
        scenario.isp.fail_link("transit-d-1")
        scenario.isp.fail_link("transit-d-2")
        SimulationEngine(scenario, step_seconds=1800.0).run(
            TIMELINE.at(9, 19, 12), TIMELINE.at(9, 20, 6)
        )
        cluster_flows = [
            record for record in scenario.netflow.records
            if CLUSTER_PREFIX.contains(record.src)
        ]
        assert cluster_flows == []
        # Traffic from healthy routes still flows.
        assert scenario.netflow.records

    def test_failed_direct_link_keeps_service_on_peer(self):
        scenario = _scenario()
        scenario.isp.fail_link("apple-1")
        SimulationEngine(scenario, step_seconds=1800.0).run(
            TIMELINE.at(9, 16), TIMELINE.at(9, 16, 6)
        )
        apple_links = {
            record.link_id
            for record in scenario.netflow.records
            if scenario.operator_of(record.src) == "Apple"
        }
        assert "apple-1" not in apple_links
        assert "apple-2" in apple_links


# ----------------------------------------------------------------------
# changes between two ticks of one run
# ----------------------------------------------------------------------

# Hourly ticks from the release on: the overflow cluster is active, and
# each tick has an SNMP bin (3600 s) to itself.
TICKS = [TIMELINE.ios_11_0_release + 3600.0 * i for i in range(5)]
CHANGE_AFTER = 3  # ticks run before the change; two are compared after it


def _detour(scenario):
    """A /32 for an Apple source, over the transit-B pair."""
    apple = scenario.estate.deployments["Apple"]
    source = apple.active_servers(MappingRegion.EU)[0].server.address
    return BgpRoute(
        IPv4Prefix(source, 32), (ASN(65002), apple.asn), ("transit-b-1", "transit-b-2")
    )


def _tick(scenario, engine, now):
    """One tick's traffic, through the entry points a shard worker uses."""
    _, splits = engine.advance_state(now)
    flows, link_used = engine._generate_isp_traffic_impl(
        now, splits[MappingRegion.EU]
    )
    block = scenario.netflow.drain()
    assert flows == len(block)
    return list(block), scenario.snmp.drain(), list(link_used.items())


# (what the run starts with, what happens between two ticks): the state
# after both is what the fresh engine is built in.
CHANGES = {
    "fail_link": (
        lambda s: None, lambda s: s.isp.fail_link("transit-d-1")),
    "restore_link": (
        lambda s: s.isp.fail_link("apple-1"), lambda s: s.isp.restore_link("apple-1")),
    "rib.install": (
        lambda s: None, lambda s: s.rib.install(_detour(s))),
}


class TestChangesBetweenTicks:
    """A route plan never outlives the table and link state it was read from."""

    @pytest.mark.parametrize("name", CHANGES)
    def test_the_next_tick_is_that_of_an_engine_built_in_that_state(self, name):
        before, change = CHANGES[name]
        running, fresh = _scenario(), _scenario()
        before(running)
        before(fresh)
        change(fresh)
        running_engine = SimulationEngine(running, step_seconds=3600.0)
        fresh_engine = SimulationEngine(fresh, step_seconds=3600.0)
        differed = False
        for index, now in enumerate(TICKS):
            if index == CHANGE_AFTER:
                change(running)
            mine = _tick(running, running_engine, now)
            theirs = _tick(fresh, fresh_engine, now)
            if index < CHANGE_AFTER:
                differed = differed or mine != theirs
            else:
                assert mine == theirs
        assert differed  # the change is one the traffic can see

    def test_a_route_gone_dark_mid_run_carries_nothing(self):
        scenario = _scenario()
        engine = SimulationEngine(scenario, step_seconds=3600.0)
        dark = {"transit-d-1", "transit-d-2", "transit-d-3", "transit-d-4"}
        for now in TICKS[:CHANGE_AFTER]:
            lit, _, _ = _tick(scenario, engine, now)
        assert any(CLUSTER_PREFIX.contains(record.src) for record in lit)
        for link_id in dark:
            scenario.isp.fail_link(link_id)
        rows, bins, link_used = _tick(scenario, engine, TICKS[CHANGE_AFTER])
        assert rows and not any(CLUSTER_PREFIX.contains(r.src) for r in rows)
        assert not dark & ({r.link_id for r in rows} | set(bins) | dict(link_used).keys())
