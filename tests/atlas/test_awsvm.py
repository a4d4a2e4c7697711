"""Tests for repro.atlas.awsvm — detailed vantages and availability."""

import pytest

from repro.atlas.awsvm import (
    AWS_REGION_METROS,
    AvailabilityCheck,
    AwsVmCampaign,
    build_aws_vantages,
)
from repro.dns.policies import CnamePolicy, StaticPolicy
from repro.dns.records import ARecord
from repro.dns.zone import AuthoritativeServer, Zone
from repro.http.messages import HttpResponse
from repro.net.geo import Continent
from repro.net.ipv4 import IPv4Address
from repro.workload.timeline import MeasurementWindow

CACHE = IPv4Address.parse("17.253.0.1")


@pytest.fixture
def estate():
    zone = Zone("apple.com")
    zone.bind("appldnld.apple.com", CnamePolicy("dl.apple.com", ttl=60))
    zone.bind(
        "dl.apple.com", StaticPolicy((ARecord("dl.apple.com", CACHE, 20),))
    )
    return [AuthoritativeServer("Apple", [zone])]


def ok_fetch(address, request):
    response = HttpResponse(status=200, body_size=100)
    response.headers.set("X-Cache", "hit-fresh")
    return response


class TestBuildVantages:
    def test_nine_regions(self, estate):
        vantages = build_aws_vantages(estate)
        assert len(vantages) == 9
        assert {v.region for v in vantages} == {r for r, _ in AWS_REGION_METROS}

    def test_every_continent_except_africa(self, estate):
        continents = {v.continent for v in build_aws_vantages(estate)}
        assert Continent.AFRICA not in continents
        assert len(continents) == 5

    def test_unique_addresses(self, estate):
        vantages = build_aws_vantages(estate)
        assert len({v.address for v in vantages}) == 9


class TestAwsVantageMeasure:
    def test_measure_keeps_full_resolution(self, estate):
        vantage = build_aws_vantages(estate)[0]
        result = vantage.measure("appldnld.apple.com", 0.0, ok_fetch)
        assert result.region == "us-east-1"
        assert result.resolution.succeeded()
        assert result.resolution.chain_names == (
            "appldnld.apple.com", "dl.apple.com",
        )
        # Full structure: operator attribution preserved per step.
        assert result.resolution.steps[0].operator == "Apple"

    def test_availability_checks_per_address(self, estate):
        vantage = build_aws_vantages(estate)[0]
        result = vantage.measure("appldnld.apple.com", 0.0, ok_fetch)
        assert len(result.checks) == 1
        assert result.checks[0].available
        assert result.checks[0].cache_verdict == "hit-fresh"

    def test_failed_fetch_recorded(self, estate):
        vantage = build_aws_vantages(estate)[0]
        result = vantage.measure(
            "appldnld.apple.com", 0.0, lambda a, r: None
        )
        assert not result.checks[0].available
        assert result.checks[0].status is None

    def test_http_error_is_unavailable(self, estate):
        def broken(address, request):
            return HttpResponse(status=503)

        vantage = build_aws_vantages(estate)[0]
        result = vantage.measure("appldnld.apple.com", 0.0, broken)
        assert not result.checks[0].available

    def test_resolution_failure_is_recorded(self):
        vantage = build_aws_vantages([])[0]
        result = vantage.measure("appldnld.apple.com", 0.0, ok_fetch)
        assert not result.resolution.succeeded()
        assert result.checks == ()


class TestAwsVmCampaign:
    def test_sweep_cadence(self, estate):
        campaign = AwsVmCampaign(
            vantages=build_aws_vantages(estate),
            target="appldnld.apple.com",
            interval=3600.0,
            window=MeasurementWindow("aws", 0.0, 7200.0),
            fetch=ok_fetch,
        )
        taken = 0
        for now in range(0, 10800, 900):
            taken += campaign.maybe_run(float(now))
        assert taken == 2 * 9  # ticks at 0 and 3600 only
        assert campaign.availability_ratio() == 1.0
        assert len(campaign.resolutions()) == 18

    def test_validation(self, estate):
        with pytest.raises(ValueError):
            AwsVmCampaign(
                vantages=[],
                target="x.example",
                interval=1.0,
                window=MeasurementWindow("w", 0.0, 1.0),
                fetch=ok_fetch,
            )


class TestScenarioFetch:
    def test_fetch_routes_by_owner(self, event_run):
        scenario, _, _ = event_run
        from repro.http.messages import HttpRequest

        request = HttpRequest("GET", "appldnld.apple.com", "/x.ipsw")
        apple_vip = scenario.estate.apple.sites[0].vip_addresses[0]
        response = scenario.http_fetch(apple_vip, request, size=100)
        assert response.ok
        akamai_cache = scenario.estate.akamai.servers[0].server.address
        response = scenario.http_fetch(akamai_cache, request, size=100)
        assert response.ok
        assert "AkamaiCacheServer" in response.headers.get("Via")
        assert scenario.http_fetch(IPv4Address.parse("9.9.9.9"), request) is None

    def test_third_party_cache_hit_on_refetch(self, event_run):
        scenario, _, _ = event_run
        from repro.http.messages import HttpRequest

        request = HttpRequest("GET", "appldnld.apple.com", "/refetch.ipsw")
        address = scenario.estate.limelight.servers[0].server.address
        first = scenario.http_fetch(address, request, size=100)
        second = scenario.http_fetch(address, request, size=100)
        assert first.headers.get("X-Cache") == "miss"
        assert second.headers.get("X-Cache") == "hit-fresh"

    def test_aws_campaign_ran_during_event(self, event_run):
        scenario, _, _ = event_run
        assert scenario.aws_campaign.results
        assert scenario.aws_campaign.availability_ratio() > 0.95
