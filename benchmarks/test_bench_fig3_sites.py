"""Figure 3: Apple delivery-server locations.

Prints the Section 3.3 discovery pipeline's result — a 17/8-style
reverse-DNS enumeration parsed with the Table 1 grammar — as the
Figure 3 per-metro ``<sites>/<servers>`` labels, read off the session's
figure set.
"""

from conftest import write_output

from repro.net.geo import Continent


def test_bench_fig3_site_discovery(bench_run, bench_figures):
    discovery = bench_figures.sites
    text = discovery.render()

    # Corroborate the locations with the traceroute campaign's min-RTT
    # geolocation, as the paper's hourly traceroutes did.
    median_error = bench_figures.median_geolocation_error_km
    if median_error is not None:
        text += (
            f"\n\ntraceroute corroboration: {bench_figures.geolocated} caches "
            f"geolocated, median error {median_error:.0f} km"
        )
        # Min-RTT bounds caches to the right area (16 tracing probes
        # at bench scale; the paper had hundreds).
        assert median_error < 2200.0
    write_output("fig3_sites.txt", text)
    print("\n" + text)

    # Density ordering: USA > Europe > East Asia; nothing in SA/Africa.
    counts = discovery.continent_site_counts(bench_run.locations)
    assert counts[Continent.NORTH_AMERICA] > counts[Continent.EUROPE]
    assert counts[Continent.EUROPE] > counts.get(Continent.ASIA, 0)
    assert Continent.SOUTH_AMERICA not in counts
    assert Continent.AFRICA not in counts
    # Every vip fronts exactly four edge-bx (Section 3.3).
    for record in discovery.sites.values():
        assert record.edge_bx_count == record.vip_count * 4
