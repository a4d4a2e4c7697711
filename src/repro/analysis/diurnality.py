"""Diurnality vs saturation flatness (Section 5.3).

The paper reads the Figure 7 panels qualitatively: "Apple runs at high
capacity all of Sep. 20, while the other CDNs show a diurnal traffic
pattern.  This leads to the conclusion that Apple uses its own CDN
first before offloading."  This module makes that reading quantitative:
a day's *flatness* is the ratio of its minimum to its maximum hourly
volume — near 1.0 for a capacity-pinned series, well below 1.0 for a
demand-following (diurnal) one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

__all__ = ["day_flatness", "operator_flatness", "FlatnessVerdict", "classify_flatness"]

_DAY = 86400.0


def day_flatness(series: Mapping[float, float], day_start: float) -> Optional[float]:
    """min/max hourly volume within one day (1.0 == perfectly flat).

    ``series`` maps bin starts to volumes (an operator entry from
    :func:`~repro.analysis.offload.operator_series`).  Returns ``None``
    when the day has fewer than three populated bins.
    """
    values = [
        volume
        for bin_start, volume in series.items()
        if day_start <= bin_start < day_start + _DAY
    ]
    if len(values) < 3:
        return None
    peak = max(values)
    if peak <= 0:
        return None
    return min(values) / peak


def operator_flatness(
    operator_bins: Mapping[str, Mapping[float, float]],
    day_start: float,
) -> dict:
    """Flatness per operator for one day."""
    result = {}
    for operator, series in operator_bins.items():
        flatness = day_flatness(series, day_start)
        if flatness is not None:
            result[operator] = flatness
    return result


@dataclass(frozen=True)
class FlatnessVerdict:
    """The §5.3 conclusion for one day."""

    day_start: float
    flatness: dict  # operator -> min/max ratio
    pinned_operators: tuple
    diurnal_operators: tuple

    def render(self, label_time=None) -> str:
        """One-line verdict."""
        label = label_time(self.day_start) if label_time else str(self.day_start)
        parts = ", ".join(
            f"{op}={value:.2f}" for op, value in sorted(self.flatness.items())
        )
        return (
            f"{label}: flatness {parts}; "
            f"capacity-pinned: {', '.join(self.pinned_operators) or 'none'}; "
            f"diurnal: {', '.join(self.diurnal_operators) or 'none'}"
        )


def classify_flatness(
    operator_bins: Mapping[str, Mapping[float, float]],
    day_start: float,
    pinned_threshold: float = 0.75,
    diurnal_threshold: float = 0.55,
) -> FlatnessVerdict:
    """Split operators into capacity-pinned vs diurnal for one day.

    An eyeball-traffic day shape with the model's default amplitude
    swings 0.4..1.6 (min/max = 0.25); a capacity-pinned series stays
    within a few percent of its ceiling.  The thresholds sit between
    those regimes with comfortable margins.
    """
    if not 0.0 <= diurnal_threshold <= pinned_threshold <= 1.0:
        raise ValueError("need 0 <= diurnal_threshold <= pinned_threshold <= 1")
    flatness = operator_flatness(operator_bins, day_start)
    pinned = tuple(
        sorted(op for op, value in flatness.items() if value >= pinned_threshold)
    )
    diurnal = tuple(
        sorted(op for op, value in flatness.items() if value <= diurnal_threshold)
    )
    return FlatnessVerdict(
        day_start=day_start,
        flatness=flatness,
        pinned_operators=pinned,
        diurnal_operators=diurnal,
    )
