"""95th-percentile ("95/5") transit billing.

Section 5.4 closes with a commercial observation: the overflow spike
Limelight pushed through AS D "could mean a multifold increase of their
monthly bill, because the prevalent 95/5 billing is affected by the
traffic spike".  Under 95/5, a month is cut into 5-minute samples, the
top 5 % are discarded, and the highest remaining sample sets the
committed rate billed for the whole month — so a multi-day spike lands
squarely inside the billable percentile.

:class:`PercentileBilling` computes that from SNMP byte counters, and
:func:`bill_impact` quantifies the before/after effect of an event.
"""

from __future__ import annotations

import math

from dataclasses import dataclass
from typing import Iterable

from .snmp import SnmpCounters

__all__ = ["PercentileBilling", "BillImpact", "bill_impact"]


class PercentileBilling:
    """The classic 95/5 scheme: 5-minute samples, top 5 % free."""

    percentile = 0.95
    sample_seconds = 300.0

    def billable_gbps(self, samples: Iterable[float]) -> float:
        """The billable rate for a series of per-sample Gbps values.

        The top ``1 - percentile`` of samples is discarded; the maximum
        of the remainder is the committed rate.  An empty series bills
        zero.
        """
        ordered = sorted(samples)
        if not ordered:
            return 0.0
        # 1-based rank ceil(p*n): exactly the top (1-p) share is free,
        # and a single sample bills in full.
        rank = math.ceil(self.percentile * len(ordered))
        return ordered[max(0, rank - 1)]

    def samples_from_snmp(
        self,
        snmp: SnmpCounters,
        link_ids: Iterable[str],
        start: float,
        end: float,
    ) -> list[float]:
        """Per-bin aggregate Gbps over a link group, zero-filled.

        SNMP bins may be coarser than 5 minutes; each bin contributes
        one sample at its average rate, and bins without traffic count
        as zero — exactly how a billing collector sees a quiet period.
        """
        if end <= start:
            raise ValueError("end must be after start")
        links = list(link_ids)
        samples = []
        bin_seconds = snmp.bin_seconds
        cursor = snmp.bin_start(start)
        while cursor < end:
            total_bytes = sum(
                snmp.bytes_in_bin(link, cursor) for link in links
            )
            samples.append(total_bytes * 8.0 / 1e9 / bin_seconds)
            cursor += bin_seconds
        return samples


@dataclass(frozen=True)
class BillImpact:
    """Billable rate before vs including an event."""

    baseline_gbps: float
    with_event_gbps: float

    @property
    def multiplier(self) -> float:
        """How many times the committed rate grew (inf from zero)."""
        if self.baseline_gbps <= 0.0:
            return float("inf") if self.with_event_gbps > 0 else 1.0
        return self.with_event_gbps / self.baseline_gbps

    def render(self) -> str:
        """One-line report."""
        return (
            f"95/5 billable rate: {self.baseline_gbps:.2f} Gbps before, "
            f"{self.with_event_gbps:.2f} Gbps with the event "
            f"({self.multiplier:.1f}x)"
        )


def bill_impact(
    snmp: SnmpCounters,
    link_ids: Iterable[str],
    baseline_start: float,
    event_start: float,
    event_end: float,
) -> BillImpact:
    """The §5.4 bill effect for a link group.

    ``baseline_start .. event_start`` is the quiet reference period;
    ``baseline_start .. event_end`` is the same billing window with the
    event included (a real bill covers the whole month — using the same
    left edge keeps sample counts comparable).  Billed 95/5 on 5-minute
    samples (:class:`PercentileBilling`'s defaults).
    """
    scheme = PercentileBilling()
    links = list(link_ids)
    before = scheme.samples_from_snmp(snmp, links, baseline_start, event_start)
    including = scheme.samples_from_snmp(snmp, links, baseline_start, event_end)
    return BillImpact(
        baseline_gbps=scheme.billable_gbps(before),
        with_event_gbps=scheme.billable_gbps(including),
    )
