"""Figure 3: Apple delivery-server locations.

Replays the Section 3.3 discovery pipeline — a 17/8-style reverse-DNS
enumeration parsed with the Table 1 grammar — and regenerates the
Figure 3 per-metro ``<sites>/<servers>`` labels.
"""

from conftest import write_output

from repro.analysis import (
    discover_sites,
    geolocate_caches,
    geolocation_errors_km,
)
from repro.net.geo import Continent


def test_bench_fig3_site_discovery(benchmark, bench_run):
    scenario, _, _ = bench_run
    ptr_table = scenario.estate.apple.reverse_dns_table()
    discovery = benchmark(discover_sites, ptr_table)
    text = discovery.render()

    # Corroborate the locations with the traceroute campaign's min-RTT
    # geolocation, as the paper's hourly traceroutes did.
    traces = scenario.traceroute_campaign.store.traceroute_columns
    estimates = geolocate_caches(traces, scenario.global_probes)
    truth = {}
    for deployment in scenario.estate.deployments.values():
        for placed in deployment.servers:
            truth[placed.server.address] = placed.location.coordinates
    errors = geolocation_errors_km(estimates, truth)
    if errors:
        median_error = errors[len(errors) // 2]
        text += (
            f"\n\ntraceroute corroboration: {len(estimates)} caches "
            f"geolocated, median error {median_error:.0f} km"
        )
        # Min-RTT bounds caches to the right area (16 tracing probes
        # at bench scale; the paper had hundreds).
        assert median_error < 2200.0
    write_output("fig3_sites.txt", text)
    print("\n" + text)

    # The paper's headline: 34 edge sites.
    assert discovery.site_count == 34
    assert discovery.total_edge_bx == 1072
    # Density ordering: USA > Europe > East Asia; nothing in SA/Africa.
    counts = discovery.continent_site_counts(scenario.locations)
    assert counts[Continent.NORTH_AMERICA] > counts[Continent.EUROPE]
    assert counts[Continent.EUROPE] > counts.get(Continent.ASIA, 0)
    assert Continent.SOUTH_AMERICA not in counts
    assert Continent.AFRICA not in counts
    # Every vip fronts exactly four edge-bx (Section 3.3).
    for record in discovery.sites.values():
        assert record.edge_bx_count == record.vip_count * 4
