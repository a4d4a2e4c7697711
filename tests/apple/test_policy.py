"""Tests for repro.apple.policy — the Meta-CDN service decision."""

import pytest

from repro.apple import policy as policy_module
from repro.apple.policy import (
    AkamaiHandoverPolicy,
    MetaCdnController,
    OffloadCnamePolicy,
)
from repro.dns.query import QueryContext
from repro.net.geo import Continent, Coordinates, MappingRegion
from repro.net.ipv4 import IPv4Address


def answer(policy, name, context):
    """The records ``policy`` answers ``name`` with for ``context``."""
    return policy.bind(name, context.now)(context)


def select(policy, name, context):
    """The CNAME target ``policy`` hands ``context``'s client for ``name``."""
    (record,) = answer(policy, name, context)
    return record.target


def make_context(client="198.51.100.7", continent=Continent.EUROPE, now=0.0):
    return QueryContext(
        client=IPv4Address.parse(client),
        coordinates=Coordinates(52.52, 13.40),
        continent=continent,
        country="de",
        now=now,
    )


def contexts(count, continent=Continent.EUROPE, now=0.0):
    for host in range(count):
        yield make_context(
            client=f"10.{host // 65536}.{(host // 256) % 256}.{host % 256}",
            continent=continent,
            now=now,
        )


class TestMetaCdnController:
    def test_no_demand_means_all_apple(self):
        controller = MetaCdnController({MappingRegion.EU: 100.0})
        assert controller.apple_share(MappingRegion.EU) == 1.0

    def test_under_capacity_keeps_everything(self):
        controller = MetaCdnController(
            {MappingRegion.EU: 100.0}, target_utilization=0.9
        )
        controller.observe_demand(MappingRegion.EU, 80.0)
        assert controller.apple_share(MappingRegion.EU) == 1.0
        assert controller.offload_gbps(MappingRegion.EU) == 0.0

    def test_overload_spills_exact_fraction(self):
        controller = MetaCdnController(
            {MappingRegion.EU: 100.0}, target_utilization=1.0
        )
        controller.observe_demand(MappingRegion.EU, 400.0)
        assert controller.apple_share(MappingRegion.EU) == pytest.approx(0.25)
        assert controller.offload_gbps(MappingRegion.EU) == pytest.approx(300.0)

    def test_utilization_target_reserves_headroom(self):
        controller = MetaCdnController(
            {MappingRegion.EU: 100.0}, target_utilization=0.5
        )
        controller.observe_demand(MappingRegion.EU, 80.0)
        assert controller.apple_share(MappingRegion.EU) == pytest.approx(0.625)

    def test_region_without_capacity_offloads_everything(self):
        controller = MetaCdnController({MappingRegion.EU: 100.0})
        controller.observe_demand(MappingRegion.APAC, 10.0)
        assert controller.apple_share(MappingRegion.APAC) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            MetaCdnController({}, target_utilization=0.0)
        controller = MetaCdnController({MappingRegion.EU: 1.0})
        with pytest.raises(ValueError):
            controller.observe_demand(MappingRegion.EU, -1.0)

    def test_regions_are_independent(self):
        controller = MetaCdnController(
            {MappingRegion.EU: 100.0, MappingRegion.US: 1000.0},
            target_utilization=1.0,
        )
        controller.observe_demand(MappingRegion.EU, 500.0)
        controller.observe_demand(MappingRegion.US, 500.0)
        assert controller.apple_share(MappingRegion.EU) == pytest.approx(0.2)
        assert controller.apple_share(MappingRegion.US) == 1.0


class TestOffloadCnamePolicy:
    def _policy(self, capacity=100.0, utilization=1.0):
        controller = MetaCdnController(
            {region: capacity for region in MappingRegion},
            target_utilization=utilization,
        )
        return controller, OffloadCnamePolicy(controller=controller)

    def test_idle_all_clients_stay_on_apple(self):
        _, policy = self._policy()
        for context in contexts(200):
            target = select(policy, "appldnld.g.applimg.com", context)
            assert target.endswith("gslb.applimg.com")

    def test_overload_spills_population_share(self):
        controller, policy = self._policy()
        controller.observe_demand(MappingRegion.EU, 400.0)  # share 0.25
        picks = [
            select(policy, "appldnld.g.applimg.com", context)
            for context in contexts(2000)
        ]
        apple = sum(1 for target in picks if target.endswith("gslb.applimg.com"))
        assert apple / len(picks) == pytest.approx(0.25, abs=0.05)

    def test_third_party_target_is_regional(self):
        controller, policy = self._policy()
        controller.observe_demand(MappingRegion.APAC, 1e9)
        context = make_context(continent=Continent.ASIA)
        controller.observe_demand(MappingRegion.APAC, 1e9)
        target = select(policy, "appldnld.g.applimg.com", context)
        assert target == "ios8-apac-lb.apple.com.akadns.net"

    def test_both_gslb_names_used(self):
        _, policy = self._policy()
        targets = {
            select(policy, "appldnld.g.applimg.com", context)
            for context in contexts(300)
        }
        assert targets == {"a.gslb.applimg.com", "b.gslb.applimg.com"}

    def test_sticky_within_ttl_bucket(self):
        controller, policy = self._policy()
        controller.observe_demand(MappingRegion.EU, 200.0)
        first = select(policy, "n", make_context(now=0.0))
        second = select(policy, "n", make_context(now=14.0))
        assert first == second

    def test_answer_has_15s_ttl(self):
        _, policy = self._policy()
        (record,) = answer(policy, "appldnld.g.applimg.com", make_context())
        assert record.ttl == 15


class TestAkamaiHandoverPolicy:
    def test_default_always_primary(self):
        policy = AkamaiHandoverPolicy()
        for context in contexts(100):
            assert select(policy, "e", context) == "a1271.gi3.akamai.net"

    def test_secondary_appears_after_activation(self):
        policy = AkamaiHandoverPolicy(secondary_from=1000.0)
        before = {select(policy, "e", c) for c in contexts(300, now=999.0)}
        after = {select(policy, "e", c) for c in contexts(300, now=1000.0)}
        assert before == {"a1271.gi3.akamai.net"}
        assert after == {"a1271.gi3.akamai.net", "a1015.gi3.akamai.net"}

    def test_secondary_only_in_eu(self):
        policy = AkamaiHandoverPolicy(secondary_from=0.0)
        us = {
            select(policy, "e", c)
            for c in contexts(300, continent=Continent.NORTH_AMERICA, now=10.0)
        }
        assert us == {"a1271.gi3.akamai.net"}

    def test_secondary_share_respected(self, monkeypatch):
        monkeypatch.setattr(policy_module, "AKAMAI_SECONDARY_SHARE", 0.3)
        policy = AkamaiHandoverPolicy(secondary_from=0.0)
        picks = [select(policy, "e", c) for c in contexts(2000, now=10.0)]
        share = picks.count("a1015.gi3.akamai.net") / len(picks)
        assert share == pytest.approx(0.3, abs=0.05)

    def test_answer_ttl(self):
        (record,) = answer(AkamaiHandoverPolicy(), "e.example", make_context())
        assert record.ttl == 300
        assert record.target == "a1271.gi3.akamai.net"
