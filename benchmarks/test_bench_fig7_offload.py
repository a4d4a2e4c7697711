"""Figure 7: update traffic by Source AS during the iOS update.

Prints, from the session's figure set, the per-CDN traffic-ratio
series (100 % = the CDN's own peak over the three pre-release days) and
the excess-volume splits.
Paper headlines: Apple peaks at 211 %, Limelight at 438 %, Akamai at
113 %; Sep 19 excess splits 33/44/23 (Apple/Limelight/Akamai); on
Sep 20-21 the bulk is Apple (~60 %) and Limelight (~40 %) with no
additional Akamai; Apple runs at high capacity while the others show a
diurnal pattern — i.e. Apple uses its own CDN first before offloading.
"""

from conftest import write_output

from repro.analysis import classify_flatness
from repro.workload import TIMELINE


def _series_rows(ratios):
    """The Figure 7 panels as daily-peak ratio rows per operator."""
    operators = sorted(ratios)
    days = sorted(
        {TIMELINE.day_start(t) for points in ratios.values() for t, _ in points}
    )
    rows = [f"    {'date':<8}" + "".join(f"{op:>12}" for op in operators)]
    for day in days:
        row = f"    {TIMELINE.date_label(day):<8}"
        for operator in operators:
            daily_peak = max(
                (r for t, r in ratios[operator] if day <= t < day + 86400.0),
                default=0.0,
            )
            row += f"{daily_peak * 100:>11.0f}%"
        rows.append(row)
    return "\n".join(rows)


def test_bench_fig7_offload(bench_figures):
    summary = bench_figures.offload
    text = summary.render()
    text += "\n\ndaily peak ratio by Source-AS operator:\n"
    text += _series_rows(summary.ratios)
    # §5.3: Apple runs near capacity on Sep 20; the others stay diurnal.
    verdict = classify_flatness(
        summary.series, TIMELINE.at(9, 20), pinned_threshold=0.5,
        diurnal_threshold=0.45,
    )
    text += "\n\n" + verdict.render(label_time=TIMELINE.date_label)
    paper = (
        "\n    paper reference: Apple 211% / Limelight 438% / Akamai 113%;"
        "\n    Sep 19 excess 33/44/23; Sep 20 ~60/40 Apple/Limelight."
    )
    write_output("fig7_offload.txt", text + paper)
    print("\n" + text + paper)

    peaks = summary.ratio_peaks
    # The ordering of the paper's 211/438/113 (the scoreboard holds the
    # magnitudes).
    assert peaks["Limelight"] > peaks["Apple"] > peaks["Akamai"]

    shares = summary.excess_shares_release_day
    # Paper: Limelight 44% > Apple 33% > Akamai 23%.
    assert shares["Limelight"] > shares["Apple"] > shares["Akamai"] > 0.05

    after = summary.excess_shares_day_after
    # Paper: ~60/40 Apple/Limelight, no additional Akamai.
    assert after["Apple"] > after["Limelight"]
    assert after.get("Akamai", 0.0) < 0.12

    # The §5.3 flatness reading holds.
    assert "Apple" in verdict.pinned_operators
    assert "Limelight" in verdict.diurnal_operators
