"""Figure 8: overflow by handover AS during the iOS update.

Prints Limelight's overflow-share series per handover AS from the
session's figure set.  Paper headlines: a stable handover distribution
before the update; AS A spiking on Sep 19 (interpreted as the
pre-cache fill); AS D — never seen before — delivering more than 40 %
of the overflow once actual delivery starts, fully saturating two of
its four links; the normal pattern returning after about three days.
"""

from conftest import write_output

from repro.isp import bill_impact
from repro.simulation import AS_TRANSIT_A, AS_TRANSIT_D
from repro.workload import TIMELINE


def test_bench_fig8_overflow(bench_run, bench_figures):
    release = bench_figures.release
    summary = bench_figures.overflow
    # The §5.4 commercial coda: AS D's 95/5 bill.
    impact = bill_impact(
        bench_run.snmp,
        [link.link_id for link in bench_run.isp.links_for(AS_TRANSIT_D)],
        baseline_start=TIMELINE.at(9, 15),
        event_start=TIMELINE.at(9, 19),
        event_end=TIMELINE.at(9, 22),
    )
    text = summary.render(label_time=TIMELINE.date_label)
    text += f"\nAS D {impact.render()}"
    paper = (
        "\n    paper reference: AS D unseen before the event, >40% of"
        "\n    overflow at delivery peak, 2 of its 4 links saturated,"
        "\n    normal pattern back after ~3 days; 95/5 billing implies"
        "\n    a multifold bill increase for AS D."
    )
    write_output("fig8_overflow.txt", text + paper)
    print("\n" + text + paper)

    # AS D carried nothing before the event: the bill effect is maximal.
    assert impact.baseline_gbps == 0.0
    assert impact.with_event_gbps > 10.0

    # AS D appears only with the event...
    assert summary.new_as_first_seen is not None
    assert summary.new_as_first_seen >= release - 21600.0
    # ...carries >40% of the overflow (the scoreboard holds the band)
    # and saturates exactly two of its four links.
    d_links = {f"transit-d-{i}" for i in range(1, 5)}
    saturated_d = d_links & set(summary.saturated_links)
    assert saturated_d == {"transit-d-1", "transit-d-2"}

    # The AS-A pre-cache-fill spike on release day.
    series = summary.series
    before = [s.get(AS_TRANSIT_A, 0.0) for t, s in series
              if release - 3 * 86400.0 <= t < release - 21600.0]
    spike = [s.get(AS_TRANSIT_A, 0.0) for t, s in series
             if release - 21600.0 <= t < release + 21600.0]
    assert max(spike) > max(before) * 1.5

    # Normal pattern returns: D's share in the last pre-window bins is
    # far below its peak.
    tail = [s.get(AS_TRANSIT_D, 0.0) for t, s in series
            if t >= release + 4 * 86400.0]
    if tail:
        assert max(tail) < summary.new_as_peak_share / 2
