"""Figure 4: unique CDN cache IPs, worldwide measurement.

Prints the per-continent unique-IP series of the global probe campaign
from the session's figure set and checks the paper's findings: only
Europe spikes after the release (the paper saw 977 IPs vs a 191
pre-event average); the spike is mostly Limelight plus
Akamai-in-other-ASs; Apple's count stays flat; North America has the
highest Apple-IP ratio, South America and Africa the highest
third-party ratios.
"""

from conftest import write_output

from repro.analysis.unique_ips import format_series
from repro.net.geo import Continent
from repro.workload import TIMELINE


def test_bench_fig4_unique_ips(bench_figures):
    facets = bench_figures.facets
    release = bench_figures.release
    lines = ["Figure 4 — unique CDN cache IPs by continent", ""]
    ratios = {}
    for continent, (peak, baseline) in bench_figures.spikes.items():
        ratios[continent] = bench_figures.spike_factor(continent)
        lines.append(
            f"    {continent.value:<16} pre-avg {baseline:7.1f}   "
            f"post-peak {peak:5d}   ratio {ratios[continent]:.2f}x"
        )
    europe = facets[Continent.EUROPE]
    peak_bin = max(
        (p for p in europe if p.bin_start >= release), key=lambda p: p.total
    )
    lines.append("")
    lines.append(
        "    Europe peak bin composition: "
        + ", ".join(f"{k}={v}" for k, v in sorted(peak_bin.counts.items()))
    )
    # The Europe facet in full, release day +/- 1 day.
    lines.append("")
    lines.append("Europe facet (2h bins, Sep 18-21):")
    window = [
        point for point in europe
        if TIMELINE.at(9, 18) <= point.bin_start < TIMELINE.at(9, 21)
    ]
    lines.append(
        format_series(
            window,
            label_time=lambda t: TIMELINE.datetime(t).strftime("%b%d %Hh"),
        )
    )
    text = "\n".join(lines)
    write_output("fig4_global_ips.txt", text)
    print("\n" + text)

    # Europe is the only continent with a pronounced spike.
    for continent, ratio in ratios.items():
        if continent is not Continent.EUROPE:
            assert ratio < ratios[Continent.EUROPE]
    # The spike is mostly Limelight (plus Akamai in other ASs).
    limelight = peak_bin.count("Limelight") + peak_bin.count("Limelight other AS")
    assert limelight > peak_bin.count("Apple")
    assert peak_bin.count("Akamai other AS") > 0
    # Apple's own count does not react to the event.
    apple_series = [p.count("Apple") for p in europe]
    apple_pre = max(p.count("Apple") for p in europe if p.bin_start < release)
    assert max(apple_series) <= apple_pre * 1.5
    # NA has the highest Apple ratio; SA/Africa the highest third-party.
    def apple_ratio(continent):
        series = facets[continent]
        totals = sum(p.total for p in series)
        apple = sum(p.count("Apple") for p in series)
        return apple / totals if totals else 0.0

    assert apple_ratio(Continent.NORTH_AMERICA) > apple_ratio(Continent.EUROPE)
    assert apple_ratio(Continent.SOUTH_AMERICA) < apple_ratio(Continent.NORTH_AMERICA)
    assert apple_ratio(Continent.AFRICA) < apple_ratio(Continent.NORTH_AMERICA)
