"""Figure 5: unique CDN cache IPs inside the European eyeball ISP.

The long-window ISP campaign (12-hourly probes) around both the iOS
11.0 release and the iOS 11.1 echo, read off that run's figure set.
Paper findings checked: Akamai's IP count rises ~408 % from Sep 18 to
Sep 20; Apple's stays stable throughout; a smaller bump accompanies
iOS 11.1 at the end of October.
"""

from conftest import write_output

from repro.analysis import count_change_ratio
from repro.workload import TIMELINE


def test_bench_fig5_isp_unique_ips(fig5_figures):
    series = fig5_figures.isp_series

    lines = ["Figure 5 — unique CDN cache IPs, eyeball-ISP measurement", ""]
    for point in series:
        when = TIMELINE.datetime(point.bin_start).strftime("%b %d %Hh")
        counts = ", ".join(f"{k}={v}" for k, v in sorted(point.counts.items()))
        lines.append(f"    {when}: total={point.total:4d}  ({counts})")
    akamai_rise = count_change_ratio(
        series, "Akamai", TIMELINE.at(9, 18), TIMELINE.at(9, 20)
    )
    lines.append("")
    lines.append(f"    Akamai IP rise Sep 18 -> Sep 20: {akamai_rise:.2f}x "
                 "(paper: 4.08x)")
    text = "\n".join(lines)
    write_output("fig5_isp_ips.txt", text)
    print("\n" + text)

    # Akamai count rises sharply around the release (paper: 408%).
    assert akamai_rise is not None and akamai_rise > 1.5
    # Apple's count is stable over the entire window.
    apple_counts = [point.count("Apple") for point in series]
    assert max(apple_counts) <= min(c for c in apple_counts if c) * 1.5
    # The iOS 11.1 release produces a visible (smaller) echo.
    release_11_0 = TIMELINE.ios_11_0_release
    release_11_1 = TIMELINE.ios_11_1_release
    def window_peak(center):
        return max(
            (p.total for p in series
             if center - 86400.0 <= p.bin_start < center + 2 * 86400.0),
            default=0,
        )
    quiet = max(
        (p.total for p in series
         if TIMELINE.at(10, 10) <= p.bin_start < TIMELINE.at(10, 20)),
        default=0,
    )
    assert window_peak(release_11_0) > quiet
    assert window_peak(release_11_1) > quiet
    assert window_peak(release_11_1) <= window_peak(release_11_0)
