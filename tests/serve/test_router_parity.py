"""One vip router under the model and the wire.

``MetaCdnEstate.serve_at`` is the router; ``estate_router(estate)`` (the
live edge's, and the ledger's) returns it and ``Sep2017Scenario.http_fetch``
(the AWS-VM availability checks') is its fault check plus that call.
For every address of every delivery fleet the three must pick the same
fleet and, on estates in the same (fresh) cache state, give the same
status and ``Via`` / ``X-Cache`` chain.
"""

import pytest

from repro.http.messages import Headers, HttpRequest
from repro.net.ipv4 import IPv4Address
from repro.serve import build_serve_estate, estate_router
from repro.simulation import ScenarioConfig, Sep2017Scenario

SIZE = 4096


def small_scenario() -> Sep2017Scenario:
    return Sep2017Scenario(ScenarioConfig(
        global_probe_count=4, isp_probe_count=3, traceroute_probe_count=1,
    ))


def request() -> HttpRequest:
    return HttpRequest(
        method="GET", host="appldnld.apple.com", path="/content/parity.ipsw",
        headers=Headers({"X-Client": "100.64.0.1"}),
    )


def fleet_addresses(estate):
    for operator, deployment in estate.deployments.items():
        for placed in deployment.servers:
            yield operator, placed.server.address


def verdict(response):
    return (
        response.status, response.body_size,
        response.headers.get("Via"), response.headers.get("X-Cache"),
    )


def assert_parity(routers, expected_addresses):
    """``routers``: (estate, route) pairs over identically built, fresh
    estates — one estate per router, so each sees the same cold caches."""
    reference = routers[0][0]
    addresses = list(fleet_addresses(reference))
    assert len(addresses) == expected_addresses
    for operator, address in addresses:
        verdicts = set()
        for estate, route in routers:
            assert estate.deployment_at(address) == operator
            response = route(address, request(), SIZE)
            assert response is not None, (operator, address)
            verdicts.add(verdict(response))
        assert len(verdicts) == 1, (operator, address, verdicts)
        status, _size, via, x_cache = verdicts.pop()
        assert status == 200 and via and x_cache
    stranger = IPv4Address.parse("9.9.9.9")
    for estate, route in routers:
        assert estate.deployment_at(stranger) is None
        assert route(stranger, request(), SIZE) is None


def test_serve_estate_routes_every_fleet_address_alike():
    estates = [build_serve_estate() for _ in range(2)]
    assert_parity(
        [
            (estates[0], estate_router(estates[0])),
            (estates[1], estates[1].serve_at),
        ],
        expected_addresses=396,
    )


@pytest.mark.parametrize("expected", [1554], ids=["sep2017"])
def test_scenario_estate_routes_every_fleet_address_alike(expected):
    scenarios = [small_scenario() for _ in range(3)]
    assert_parity(
        [
            (scenarios[0].estate, estate_router(scenarios[0].estate)),
            (scenarios[1].estate, scenarios[1].http_fetch),
            (scenarios[2].estate, scenarios[2].estate.serve_at),
        ],
        expected_addresses=expected,
    )


def test_a_warm_cache_answers_alike_too():
    """Second fetch of the same object: every router reports the hit."""
    scenario = small_scenario()
    route = estate_router(scenario.estate)
    for operator, address in list(fleet_addresses(scenario.estate))[::97]:
        first = scenario.http_fetch(address, request(), SIZE)
        second = route(address, request(), SIZE)
        third = scenario.estate.serve_at(address, request(), SIZE)
        assert "miss" in first.headers.get("X-Cache").lower(), operator
        assert verdict(second) == verdict(third)
        assert "hit" in second.headers.get("X-Cache").lower(), operator
