"""The reproduction scoreboard: every paper target, checked in one pass.

EXPERIMENTS.md is the human-readable comparison; this module is the
machine-checkable one.  :data:`PAPER_TARGETS` lists the paper's headline
quantities with tolerances calibrated to the reproduction's scale, and
:func:`evaluate_scoreboard` reads each from one run's
:class:`~repro.analysis.report.PaperFigures` and returns pass/fail
verdicts — the bench prints it as the final word on the reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..net.geo import Continent
from .report import PaperFigures

__all__ = ["TargetCheck", "PAPER_TARGETS", "evaluate_scoreboard", "render_scoreboard"]


@dataclass(frozen=True)
class TargetCheck:
    """One scoreboard row."""

    name: str
    paper_value: str
    measured: Optional[float]  # None: the run lacks the figure
    low: float
    high: float
    unit: str = ""

    @property
    def passed(self) -> bool:
        """Whether the value was measured and falls inside the accepted band."""
        return self.measured is not None and self.low <= self.measured <= self.high

    def render(self) -> str:
        """One table row."""
        verdict = "ok " if self.passed else "FAIL"
        value = (
            "not measured" if self.measured is None
            else f"measured {self.measured:>8.2f}{self.unit}"
        )
        return (
            f"    [{verdict}] {self.name:<42} paper {self.paper_value:>10}   "
            f"{value} (accepted {self.low:g}..{self.high:g})"
        )


# name -> (paper value label, accepted band).  Bands encode the
# shape-not-absolute philosophy: exact where the model is exact
# (structure), generous where probe-scale matters (unique-IP factors).
PAPER_TARGETS: dict[str, tuple[str, float, float, str]] = {
    "apple-sites": ("34", 34, 34, ""),
    "apple-edge-bx": ("1072", 1072, 1072, ""),
    "fig7-apple-peak-ratio": ("211%", 1.7, 2.6, "x"),
    "fig7-limelight-peak-ratio": ("438%", 3.2, 5.5, "x"),
    "fig7-akamai-peak-ratio": ("113%", 1.0, 1.5, "x"),
    "fig7-excess-apple": ("33%", 0.2, 0.5, ""),
    "fig7-excess-limelight": ("44%", 0.35, 0.65, ""),
    "fig7-excess-akamai": ("23%", 0.05, 0.35, ""),
    "fig8-asd-peak-overflow-share": (">40%", 0.4, 0.8, ""),
    "fig8-asd-saturated-links": ("2 of 4", 2, 2, ""),
    "fig4-europe-spike-factor": ("5.1x", 2.5, 8.0, "x"),
}


def evaluate_scoreboard(figures: PaperFigures) -> list[TargetCheck]:
    """Score one run's figures: a row per target, in table order.

    A target whose figure the run lacks gets a failing, not-measured row.
    """
    measured: dict[str, float] = {
        "apple-sites": figures.sites.site_count,
        "apple-edge-bx": figures.sites.total_edge_bx,
    }
    offload = figures.offload
    if offload is not None:
        for operator in ("Apple", "Limelight", "Akamai"):
            key = operator.lower()
            measured[f"fig7-{key}-peak-ratio"] = offload.ratio_peaks.get(operator, 0.0)
            measured[f"fig7-excess-{key}"] = offload.excess_shares_release_day.get(
                operator, 0.0
            )
    overflow = figures.overflow
    if overflow is not None:
        measured["fig8-asd-peak-overflow-share"] = overflow.new_as_peak_share
        measured["fig8-asd-saturated-links"] = sum(
            link.startswith("transit-d-") for link in overflow.saturated_links
        )
    europe = figures.spike_factor(Continent.EUROPE)
    if europe is not None:
        measured["fig4-europe-spike-factor"] = europe
    return [
        TargetCheck(name, paper_value, measured.get(name), low, high, unit)
        for name, (paper_value, low, high, unit) in PAPER_TARGETS.items()
    ]


def render_scoreboard(checks: list[TargetCheck]) -> str:
    """The full scoreboard as text."""
    passed = sum(1 for check in checks if check.passed)
    lines = [
        f"Reproduction scoreboard: {passed}/{len(PAPER_TARGETS)} targets in band",
        "",
    ]
    lines.extend(check.render() for check in checks)
    return "\n".join(lines)
