"""Overflow impact (Figure 8, Section 5.4).

Figure 8 plots, per time bin, how one CDN's *overflow* traffic (flows
whose Source AS differs from the handover AS) splits across handover
ASs.  The paper's findings for Limelight: a stable A/B/C mix before the
event, an AS-A spike on Sep 19 (interpreted as the pre-cache fill),
then AS D — never seen before — delivering more than 40 % of the
overflow and fully saturating two of its four links, until Limelight
stops using those caches after about three days.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from ..isp.classify import ClassifiedFlow
from ..isp.snmp import SnmpCounters
from ..isp.topology import EyeballIsp
from ..net.asys import ASN

__all__ = [
    "overflow_share_series",
    "first_seen",
    "peak_share",
    "OverflowSummary",
    "summarize_overflow",
]


def overflow_share_series(
    classified: Iterable[ClassifiedFlow],
    bin_seconds: float = 21600.0,
    operator: Optional[str] = None,
) -> list:
    """Handover-AS shares of overflow traffic per bin.

    Returns ``[(bin_start, {handover_asn: share})]`` with shares
    normalised within each bin — the Figure 8 stacked percentages.
    """
    if bin_seconds <= 0:
        raise ValueError("bin_seconds must be positive")
    bins: dict[float, dict[ASN, float]] = {}
    for item in classified:
        if not item.is_overflow:
            continue
        if operator is not None and item.operator != operator:
            continue
        bin_start = math.floor(item.flow.timestamp / bin_seconds) * bin_seconds
        per_as = bins.setdefault(bin_start, {})
        per_as[item.handover_asn] = per_as.get(item.handover_asn, 0.0) + item.flow.bytes
    return overflow_shares(bins)


def overflow_shares(bins: dict) -> list:
    """``{bin_start: {handover_asn: bytes}}`` as per-bin shares, bins ascending."""
    result = []
    for bin_start, per_as in sorted(bins.items()):
        total = sum(per_as.values())
        if total <= 0:
            # Zero-byte flows can put an empty-volume bin in the map;
            # normalising it would divide by zero.
            continue
        shares = {asn: volume / total for asn, volume in per_as.items()}
        result.append((bin_start, shares))
    return result


def first_seen(series: list, asn: ASN, min_share: float = 0.01) -> Optional[float]:
    """When a handover AS first carried a noticeable overflow share."""
    for bin_start, shares in series:
        if shares.get(asn, 0.0) >= min_share:
            return bin_start
    return None


def peak_share(series: list, asn: ASN) -> float:
    """The maximum share a handover AS reached in any bin."""
    return max((shares.get(asn, 0.0) for _, shares in series), default=0.0)


@dataclass(frozen=True)
class OverflowSummary:
    """The Figure 8 headline quantities for one run."""

    series: list
    new_as: ASN
    new_as_first_seen: Optional[float]
    new_as_peak_share: float
    saturated_links: list

    def render(self, label_time=None) -> str:
        """Text rendering of the Figure 8 regeneration."""
        label = label_time if label_time is not None else str
        lines = ["Overflow by handover AS (Figure 8):", ""]
        for bin_start, shares in self.series:
            parts = ", ".join(
                f"{asn}={share * 100:.0f}%"
                for asn, share in sorted(shares.items(), key=lambda kv: -kv[1])
            )
            lines.append(f"    {label(bin_start)}: {parts}")
        lines.append("")
        seen = (
            label(self.new_as_first_seen)
            if self.new_as_first_seen is not None
            else "never"
        )
        lines.append(
            f"{self.new_as} first seen {seen}, "
            f"peak share {self.new_as_peak_share * 100:.0f}%"
        )
        lines.append(f"saturated links at event peak: {self.saturated_links}")
        return "\n".join(lines)


def summarize_overflow(
    classified: Iterable[ClassifiedFlow],
    new_as: ASN,
    isp: EyeballIsp,
    snmp: SnmpCounters,
    peak_probe_times: Iterable[float],
) -> OverflowSummary:
    """One-call Figure 8 summary (Limelight's shares in 6 h bins).

    ``new_as`` is the handover AS whose appearance the analysis tracks
    (the paper's AS D); ``peak_probe_times`` are the instants checked
    for link saturation (e.g. hourly over the release evening).

    The report does not call it (it folds the roll-up's columns in
    :func:`repro.analysis.report.fold_traffic`); it stays as the
    per-flow reference that fold is tested equal to.
    """
    return overflow_summary(
        overflow_share_series(classified, 21600.0, operator="Limelight"),
        new_as, isp, snmp, peak_probe_times,
    )


def overflow_summary(
    series: list,
    new_as: ASN,
    isp: EyeballIsp,
    snmp: SnmpCounters,
    peak_probe_times: Iterable[float],
) -> OverflowSummary:
    """The Figure 8 summary of an :func:`overflow_share_series`."""
    saturated: set[str] = set()
    for probe_time in peak_probe_times:
        saturated.update(snmp.saturated_links(isp, probe_time, threshold=0.95))
    return OverflowSummary(
        series=series,
        new_as=new_as,
        new_as_first_seen=first_seen(series, new_as, min_share=0.02),
        new_as_peak_share=peak_share(series, new_as),
        saturated_links=sorted(saturated),
    )
