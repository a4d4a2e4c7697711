"""Integration tests for repro.apple.mapping — the full Figure 2 chain."""

import pytest

from repro.apple.deployment import AppleCdn
from repro.apple.mapping import (
    ENTRY_TTL,
    NAMES,
    SELECTION_TTL,
    build_meta_cdn,
)
from repro.apple.policy import MetaCdnController
from repro.cdn.thirdparty import (
    AKAMAI_PLAN,
    LIMELIGHT_PLAN,
    build_third_party,
)
from repro.dns.policies import WeightSchedule
from repro.dns.query import Question, QueryContext, RCode
from repro.net.asys import ASN
from repro.net.geo import Continent, Coordinates, MappingRegion
from repro.net.ipv4 import IPv4Address
from repro.net.locode import LocodeDatabase

DB = LocodeDatabase.builtin()


def make_context(client="198.51.100.7", continent=Continent.EUROPE, country="de",
                 now=0.0, coords=(52.52, 13.40)):
    return QueryContext(
        client=IPv4Address.parse(client),
        coordinates=Coordinates(*coords),
        continent=continent,
        country=country,
        now=now,
    )


@pytest.fixture(scope="module")
def estate():
    apple = AppleCdn.build(DB)
    metros = [DB.get(code) for code in ("defra", "uklon", "usnyc", "jptyo")]
    akamai = build_third_party(AKAMAI_PLAN, metros, other_as=ASN(64512))
    limelight = build_third_party(LIMELIGHT_PLAN, metros, other_as=ASN(64513))
    controller = MetaCdnController(
        {region: 200.0 for region in MappingRegion}, target_utilization=1.0
    )
    return build_meta_cdn(apple, akamai, limelight, controller, a1015_from=3600.0)


class TestIdleResolution:
    def test_world_chain_reaches_apple_gslb(self, estate):
        resolution = estate.resolver().resolve(NAMES.entry_point, make_context())
        assert resolution.succeeded()
        names = resolution.chain_names
        assert names[0] == NAMES.entry_point
        assert names[1] == NAMES.akadns_entry
        assert names[2] == NAMES.selection
        assert names[3] in (NAMES.gslb_a, NAMES.gslb_b)

    def test_answers_are_apple_vips(self, estate):
        resolution = estate.resolver().resolve(NAMES.entry_point, make_context())
        for address in resolution.addresses:
            assert estate.apple.site_for(address) is not None

    def test_operator_sequence_matches_paper(self, estate):
        # Two of three mapping steps run on Akamai DNS, one on Apple.
        resolution = estate.resolver().resolve(NAMES.entry_point, make_context())
        assert [step.operator for step in resolution.steps] == [
            "Apple",   # entry point CNAME
            "Akamai",  # akadns country split
            "Apple",   # applimg Meta-CDN selection
            "Apple",   # gslb A records
        ]

    def test_ttls_match_figure2(self, estate):
        resolution = estate.resolver().resolve(NAMES.entry_point, make_context())
        chain = resolution.cname_chain
        assert chain[0].ttl == ENTRY_TTL  # 21600
        assert chain[1].ttl == 120
        assert chain[2].ttl == SELECTION_TTL  # 15

    def test_india_china_split(self, estate):
        india = estate.resolver().resolve(
            NAMES.entry_point, make_context(country="in", continent=Continent.ASIA)
        )
        assert NAMES.india_lb in india.chain_names
        china = estate.resolver().resolve(
            NAMES.entry_point, make_context(country="cn", continent=Continent.ASIA)
        )
        assert NAMES.china_lb in china.chain_names

    def test_manifest_host_resolves(self, estate):
        resolution = estate.resolver().resolve(NAMES.manifest_host, make_context())
        assert resolution.succeeded()
        assert str(resolution.addresses[0]) == "17.171.4.33"


class TestOverloadResolution:
    def test_offload_reroutes_to_third_party(self, estate):
        estate.controller.observe_demand(MappingRegion.EU, 1e6)
        try:
            resolution = estate.resolver().resolve(NAMES.entry_point, make_context())
            names = resolution.chain_names
            assert NAMES.ios8_lb(MappingRegion.EU) in names
            last = names[-1]
            assert last in (
                NAMES.akamai_primary,
                NAMES.akamai_secondary,
                NAMES.limelight_us_eu,
            )
            assert resolution.succeeded()
        finally:
            estate.controller.observe_demand(MappingRegion.EU, 0.0)

    def test_third_party_answers_come_from_their_fleets(self, estate):
        estate.controller.observe_demand(MappingRegion.EU, 1e6)
        try:
            seen_operators = set()
            for host in range(60):
                context = make_context(client=f"10.2.{host // 256}.{host % 256}")
                resolution = estate.resolver().resolve(NAMES.entry_point, context)
                operator = estate.deployment_at(resolution.addresses[0])
                seen_operators.add(operator)
            assert seen_operators == {"Akamai", "Limelight"}
        finally:
            estate.controller.observe_demand(MappingRegion.EU, 0.0)

    def test_apac_uses_llnwd_name(self, estate):
        estate.controller.observe_demand(MappingRegion.APAC, 1e6)
        try:
            for host in range(40):
                context = make_context(
                    client=f"10.3.0.{host}",
                    continent=Continent.ASIA,
                    country="jp",
                    coords=(35.67, 139.65),
                )
                resolution = estate.resolver().resolve(NAMES.entry_point, context)
                names = resolution.chain_names
                assert NAMES.limelight_us_eu not in names
                if NAMES.limelight_apac in names:
                    return
            pytest.fail("Limelight APAC handover never selected")
        finally:
            estate.controller.observe_demand(MappingRegion.APAC, 0.0)

    def test_a1015_appears_only_after_activation(self, estate):
        estate.controller.observe_demand(MappingRegion.EU, 1e6)
        try:
            def final_names(now):
                names = set()
                for host in range(80):
                    context = make_context(client=f"10.4.0.{host}", now=now)
                    resolver = estate.resolver(cache=False)
                    names.add(resolver.resolve(NAMES.entry_point, context).final_name)
                return names

            assert NAMES.akamai_secondary not in final_names(0.0)
            assert NAMES.akamai_secondary in final_names(7200.0)
        finally:
            estate.controller.observe_demand(MappingRegion.EU, 0.0)


class TestEstateValidation:
    def test_missing_region_weights_rejected(self):
        apple = AppleCdn.build(DB)
        metros = [DB.get("defra")]
        akamai = build_third_party(AKAMAI_PLAN, metros, other_as=ASN(64512))
        limelight = build_third_party(LIMELIGHT_PLAN, metros, other_as=ASN(64513))
        controller = MetaCdnController({r: 1.0 for r in MappingRegion})
        with pytest.raises(ValueError):
            build_meta_cdn(
                apple, akamai, limelight, controller,
                third_party_weights={
                    MappingRegion.EU: WeightSchedule.constant({NAMES.edgesuite: 1.0})
                },
            )


class TestIpv6Absence:
    """Section 3.2: "none of the mapping entry points responds to
    requests for IPv6 resolution; only IPv4 is used"."""

    def test_aaaa_queries_return_no_records(self, estate):
        from repro.dns.records import RecordType

        context = make_context()
        for name in (
            NAMES.entry_point,
            NAMES.selection,
            NAMES.gslb_a,
        ):
            resolver = estate.resolver(cache=False)
            server = resolver.server_for(name)
            response = server.query(Question(name, RecordType.AAAA), context)
            assert response.rcode is RCode.NOERROR
            assert response.is_empty(), name

    def test_a_queries_do_answer(self, estate):
        from repro.dns.records import RecordType

        server = estate.resolver().server_for(NAMES.entry_point)
        response = server.query(
            Question(NAMES.entry_point, RecordType.A), make_context()
        )
        assert not response.is_empty()
