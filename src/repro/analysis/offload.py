"""Offload impact (Figure 7, Section 5.3).

The paper's pipeline: select the cache IPs observed in RIPE Atlas DNS
measurements, cross-correlate with Netflow (traffic) and BGP (Source
AS), scale by SNMP to undo sampling, then plot per-CDN traffic as a
ratio of each CDN's own pre-update peak (the 100 % line is the maximum
over the three days before the release).  Headline numbers: Apple
peaks at 211 %, Limelight at 438 %, Akamai at 113 %; the excess volume
on Sep 19 splits 33 % / 44 % / 23 % (Apple / Limelight / Akamai), and
on Sep 20-21 roughly 60/40 Apple/Limelight with no extra Akamai.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from ..isp.classify import ClassifiedFlow
from ..isp.netflow import NetflowCollector
from ..isp.snmp import SnmpCounters

__all__ = [
    "operator_series",
    "traffic_ratio_series",
    "ratio_peaks",
    "excess_volume_shares",
    "OffloadSummary",
    "summarize_offload",
]


def operator_series(
    classified: Iterable[ClassifiedFlow],
    bin_seconds: float = 3600.0,
    snmp: Optional[SnmpCounters] = None,
    collector: Optional[NetflowCollector] = None,
) -> dict:
    """Per-operator byte series: ``{operator: {bin_start: bytes}}``.

    When ``snmp`` and ``collector`` are given, each flow's bytes are
    multiplied by the link/bin SNMP scale factor — the Section 5.3
    sampling correction.  With exact (unsampled) collection the factor
    is 1 and may be omitted.
    """
    if bin_seconds <= 0:
        raise ValueError("bin_seconds must be positive")
    series: dict[str, dict[float, float]] = {}
    factor_cache: dict[tuple[str, float], float] = {}
    for item in classified:
        if item.operator is None:
            continue
        bin_start = math.floor(item.flow.timestamp / bin_seconds) * bin_seconds
        scale = 1.0
        if snmp is not None and collector is not None:
            key = (item.flow.link_id, snmp.bin_start(item.flow.timestamp))
            if key not in factor_cache:
                factor = snmp.scale_factor(
                    collector, item.flow.link_id, item.flow.timestamp
                )
                factor_cache[key] = factor if factor is not None else 1.0
            scale = factor_cache[key]
        per_operator = series.setdefault(item.operator, {})
        per_operator[bin_start] = per_operator.get(bin_start, 0.0) + (
            item.flow.bytes * scale
        )
    return series


def traffic_ratio_series(
    series: dict,
    reference_start: float,
    reference_end: float,
) -> dict:
    """Figure 7: each operator's traffic relative to its pre-event peak.

    Returns ``{operator: [(bin_start, ratio)]}`` where 1.0 is the
    operator's maximum bin inside the reference window.
    """
    ratios: dict[str, list[tuple[float, float]]] = {}
    for operator, bins in series.items():
        reference = max(
            (volume for start, volume in bins.items()
             if reference_start <= start < reference_end),
            default=0.0,
        )
        if reference <= 0:
            continue
        ratios[operator] = [
            (start, volume / reference) for start, volume in sorted(bins.items())
        ]
    return ratios


def ratio_peaks(ratios: dict, window_start: float, window_end: float) -> dict:
    """Each operator's maximum ratio inside a window (the 211/438/113)."""
    peaks: dict[str, float] = {}
    for operator, points in ratios.items():
        window = [r for t, r in points if window_start <= t < window_end]
        if window:
            peaks[operator] = max(window)
    return peaks


def excess_volume_shares(
    series: dict,
    day_start: float,
    reference_day_start: float,
) -> dict:
    """How the extra traffic of one day splits across operators.

    "Excess" is the day's volume above the same operator's volume on a
    pre-event reference day, clamped at zero; shares normalise to 1.
    """
    excess: dict[str, float] = {}
    for operator, bins in series.items():
        day = sum(
            volume for start, volume in bins.items()
            if day_start <= start < day_start + 86400.0
        )
        reference = sum(
            volume for start, volume in bins.items()
            if reference_day_start <= start < reference_day_start + 86400.0
        )
        excess[operator] = max(0.0, day - reference)
    total = sum(excess.values())
    if total <= 0:
        return {operator: 0.0 for operator in excess}
    return {operator: volume / total for operator, volume in excess.items()}


@dataclass(frozen=True)
class OffloadSummary:
    """The Figure 7 headline quantities for one run, and the series they
    were read from."""

    ratio_peaks: dict
    excess_shares_release_day: dict
    excess_shares_day_after: dict
    series: dict  # {operator: {bin_start: bytes}}, see operator_series
    ratios: dict  # {operator: [(bin_start, ratio)]}, see traffic_ratio_series

    def render(self, label_time=None) -> str:
        """Text rendering of the Figure 7 regeneration."""
        lines = ["Offload impact (Figure 7):", ""]
        lines.append("peak traffic ratio vs pre-update peak:")
        for operator, peak in sorted(self.ratio_peaks.items()):
            lines.append(f"    {operator:<12}{peak * 100:7.0f}%")
        lines.append("excess-volume shares, release day:")
        for operator, share in sorted(self.excess_shares_release_day.items()):
            lines.append(f"    {operator:<12}{share * 100:7.0f}%")
        lines.append("excess-volume shares, day after:")
        for operator, share in sorted(self.excess_shares_day_after.items()):
            lines.append(f"    {operator:<12}{share * 100:7.0f}%")
        return "\n".join(lines)


def summarize_offload(
    classified: Iterable[ClassifiedFlow],
    release_day_start: float,
) -> OffloadSummary:
    """One-call Figure 7 summary around a release day, hourly bins.

    The report does not call it (it folds the roll-up's columns in
    :func:`repro.analysis.report.fold_traffic`); it stays as the
    per-flow reference that fold is tested equal to.
    """
    return offload_summary(operator_series(classified), release_day_start)


def offload_summary(series: dict, release_day_start: float) -> OffloadSummary:
    """The Figure 7 summary of an :func:`operator_series` around a release day."""
    day = 86400.0
    reference_start = release_day_start - 3 * day
    ratios = traffic_ratio_series(series, reference_start, release_day_start)
    return OffloadSummary(
        ratio_peaks=ratio_peaks(ratios, release_day_start, release_day_start + 2 * day),
        excess_shares_release_day=excess_volume_shares(
            series, release_day_start, release_day_start - day
        ),
        excess_shares_day_after=excess_volume_shares(
            series, release_day_start + day, release_day_start - day
        ),
        series=series,
        ratios=ratios,
    )
