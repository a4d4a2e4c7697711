"""``repro survey``: the paper's generic CDN-survey methodology — mapping
graph, site discovery and header inference, no time simulation."""

from __future__ import annotations

import argparse

from ..analysis import MappingGraph, discover_sites, infer_hierarchy
from ..dns.query import QueryContext
from ..dns.trace import DelegationTree
from ..http.messages import Headers, HttpRequest
from ..net.geo import Continent, Coordinates, MappingRegion
from ..net.ipv4 import IPv4Address
from ..simulation import ScenarioConfig, Sep2017Scenario


def register(commands) -> None:
    sub = commands.add_parser(
        "survey", help="survey the mapping chain, sites and headers"
    )
    sub.set_defaults(handler=run)


def run(_args: argparse.Namespace) -> int:
    scenario = Sep2017Scenario(
        ScenarioConfig(global_probe_count=1, isp_probe_count=1)
    )
    estate = scenario.estate
    vantage_points = (
        (Continent.EUROPE, "de", (50.11, 8.68)),
        (Continent.NORTH_AMERICA, "us", (40.71, -74.0)),
        (Continent.ASIA, "jp", (35.67, 139.65)),
        (Continent.ASIA, "in", (19.07, 72.87)),
        (Continent.SOUTH_AMERICA, "br", (-23.55, -46.63)),
    )
    resolutions = []
    for load in (0.0, 1e6):
        for region in MappingRegion:
            estate.controller.observe_demand(region, load)
        for index in range(20):
            for continent, country, coords in vantage_points:
                context = QueryContext(
                    client=IPv4Address.parse(f"198.51.{index}.1"),
                    coordinates=Coordinates(*coords),
                    continent=continent,
                    country=country,
                    now=0.0,
                )
                resolutions.append(
                    estate.resolver(cache=False).resolve(
                        estate.names.entry_point, context
                    )
                )
    for region in MappingRegion:
        estate.controller.observe_demand(region, 0.0)
    print(MappingGraph.from_resolutions(resolutions).render())
    print()
    # Delegation attribution, dig-+trace style.
    tree = DelegationTree(estate.servers)
    for name in (
        estate.names.entry_point,
        estate.names.akadns_entry,
        estate.names.selection,
        estate.names.limelight_us_eu,
    ):
        print(tree.trace(name).render())
        print()
    print(discover_sites(estate.apple.reverse_dns_table()).render())
    print()
    site = estate.apple.sites[0]
    samples = []
    for vip in site.vip_addresses[:2]:
        for index in range(10):
            request = HttpRequest(
                "GET", "appldnld.apple.com", f"/survey/file{index}.ipsw",
                headers=Headers({"X-Client": f"198.51.99.{index}"}),
            )
            samples.append((vip, estate.apple.serve(vip, request, 1000).response))
    print(infer_hierarchy(samples).render())
    return 0
