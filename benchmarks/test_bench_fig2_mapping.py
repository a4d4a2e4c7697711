"""Figure 2: the request-mapping DNS and load-sharing infrastructure.

Performs AWS-VM-style detailed recursive resolutions from all regions
(idle and overloaded, before and after the ``a1015`` rollout change),
reconstructs the CNAME graph with TTLs and operator attribution, and
checks the paper's structural findings.
"""

from conftest import write_output

from repro.analysis import MappingGraph
from repro.dns.query import QueryContext
from repro.net.geo import Continent, Coordinates, MappingRegion
from repro.net.ipv4 import IPv4Address
from repro.workload import TIMELINE

_VANTAGE = (
    (Continent.EUROPE, "de", (50.11, 8.68)),
    (Continent.NORTH_AMERICA, "us", (40.71, -74.0)),
    (Continent.ASIA, "jp", (35.67, 139.65)),
    (Continent.ASIA, "in", (19.07, 72.87)),
    (Continent.ASIA, "cn", (31.23, 121.47)),
    (Continent.OCEANIA, "au", (-33.87, 151.21)),
    (Continent.SOUTH_AMERICA, "br", (-23.55, -46.63)),
)


def _collect_resolutions(scenario):
    estate = scenario.estate
    resolutions = []
    for region in MappingRegion:
        estate.controller.observe_demand(region, 1e6)  # force offload paths
    try:
        for now in (TIMELINE.at(9, 18), TIMELINE.ios_11_0_release + 8 * 3600.0):
            for host in range(30):
                for continent, country, coords in _VANTAGE:
                    context = QueryContext(
                        client=IPv4Address.parse(f"198.51.{host}.77"),
                        coordinates=Coordinates(*coords),
                        continent=continent,
                        country=country,
                        now=now,
                    )
                    resolver = estate.resolver(cache=False)
                    resolutions.append(
                        resolver.resolve(estate.names.entry_point, context)
                    )
        # Idle instants exercise the Apple-CDN branch too.
        for region in MappingRegion:
            estate.controller.observe_demand(region, 0.0)
        for host in range(30):
            for continent, country, coords in _VANTAGE:
                context = QueryContext(
                    client=IPv4Address.parse(f"198.51.{100 + host}.77"),
                    coordinates=Coordinates(*coords),
                    continent=continent,
                    country=country,
                    now=TIMELINE.at(9, 18),
                )
                resolutions.append(
                    estate.resolver(cache=False).resolve(
                        estate.names.entry_point, context
                    )
                )
    finally:
        for region in MappingRegion:
            estate.controller.observe_demand(region, 0.0)
    return resolutions


def test_bench_fig2_mapping_graph(benchmark, bench_run):
    scenario = bench_run
    # Primary source: the AWS-VM campaign's structured resolutions,
    # collected live during the event run (the paper's methodology);
    # supplemented with India/China vantages the nine VMs lack.
    resolutions = scenario.aws_campaign.resolutions()
    resolutions += _collect_resolutions(scenario)
    graph = benchmark(MappingGraph.from_resolutions, resolutions)
    names = scenario.estate.names
    text = graph.render()
    write_output("fig2_mapping.txt", text)
    print("\n" + text)

    # The measured TTL ladder of Figure 2.
    assert graph.ttl_of(names.entry_point, names.akadns_entry) == 21600
    assert graph.ttl_of(names.akadns_entry, names.selection) == 120
    for edge in graph.targets_of(names.selection):
        assert edge.ttl == 15
    # Three selection steps; two run by Akamai, one by Apple.
    operators = graph.selection_operators()
    counts = {}
    for operator in operators.values():
        counts[operator] = counts.get(operator, 0) + 1
    assert counts.get("Akamai", 0) >= 2
    assert counts.get("Apple", 0) >= 1
    # The rollout change is visible: both gi3 handover names occur.
    targets = {edge.target for edge in graph.targets_of(names.edgesuite)}
    assert targets == {names.akamai_primary, names.akamai_secondary}
    # India/China split.
    akadns_targets = {e.target for e in graph.targets_of(names.akadns_entry)}
    assert {names.selection, names.india_lb, names.china_lb} <= akadns_targets
    # Every chain terminates in delivery-server A records.
    for chain in graph.chains_from(names.entry_point):
        assert chain[-1] in graph.terminal_names
