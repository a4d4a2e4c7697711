"""Open-loop arrival schedules: the release evening as request times.

The closed-loop load generator (PR 2) issues a fixed request count as
fast as completions allow — fine for a selftest, but not the event the
paper measured.  A flash crowd is *open-loop*: devices decide to update
on their own clock, regardless of how the servers are coping.  This
module turns the existing demand model — per-region adoption volumes
(:class:`~repro.workload.adoption.AdoptionModel`), the linear-ramp/
exponential-decay surge shape (:class:`~repro.workload.flashcrowd.
ReleaseSurge`) and the per-continent diurnal profiles — into a
deterministic sequence of ``(arrival time, region)`` pairs compressed
into a replay window of a few seconds to minutes.  The same inputs
always give the same schedule — same times, same regions — so two runs
offer the same load.

Arrival times come from inverting the cumulative demand curve: the
event window is cut into piecewise-constant rate bins (the demand model
evaluated per region at the bin midpoint), request ``k`` lands where
cumulative demand reaches ``(k + 0.5)/N`` of the window total, and the
region is a :func:`~repro.dns.policies.stable_fraction` draw against
the bin's regional mix.  Everything is pure arithmetic on the model —
no RNG state, no precomputed arrays proportional to ``N``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator

from ..dns.policies import stable_fraction
from ..net.geo import MappingRegion
from .adoption import AdoptionModel
from .flashcrowd import REGION_PROFILES, ReleaseSurge

__all__ = ["ArrivalSchedule"]

# The paper's release instant: Sep 19, 17:00 UTC, expressed as seconds
# into the day (the diurnal profiles take time-of-day seconds).
_RELEASE_SECONDS = 17.0 * 3600.0
# The flash crowd's event window: opens this long before the release,
# runs this long past it, in this many piecewise-constant bins.
_LEAD_SECONDS = 1800.0
_WINDOW_SECONDS = 6.0 * 3600.0
_BINS = 96


@dataclass(frozen=True)
class _Bin:
    """One piecewise-constant slice of the event window."""

    start_tau: float  # event-time seconds (window-relative)
    width_tau: float
    region_weights: tuple[float, ...]  # aligned with _REGIONS

    @property
    def total(self) -> float:
        return sum(self.region_weights)


_REGIONS = tuple(MappingRegion)


class ArrivalSchedule:
    """A deterministic open-loop arrival process over a replay window.

    ``total_requests`` arrivals are spread over ``duration`` seconds of
    wall-clock replay, with instantaneous rate proportional to the
    modelled demand at the corresponding instant of the (much longer)
    event window.  Iterate with :meth:`events`.
    """

    def __init__(self, total_requests: int, duration: float,
                 bins: list[_Bin], kind: str) -> None:
        if total_requests <= 0:
            raise ValueError("total_requests must be positive")
        if not 0.0 < duration < math.inf:
            raise ValueError("duration must be positive and finite")
        if not bins or all(b.total <= 0.0 for b in bins):
            raise ValueError("schedule needs at least one bin with demand")
        self.total_requests = total_requests
        self.duration = duration
        self.kind = kind
        self._bins = bins
        # Cumulative weight at each bin's end, for rate inversion.
        self._cumulative: list[float] = []
        running = 0.0
        for b in bins:
            running += b.total * b.width_tau
            self._cumulative.append(running)
        self._total_weight = running
        window_tau = bins[-1].start_tau + bins[-1].width_tau - bins[0].start_tau
        self._compression = window_tau / duration

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def flash_crowd(
        cls,
        total_requests: int,
        duration: float,
    ) -> "ArrivalSchedule":
        """The Sep-19 release evening, compressed into ``duration`` s.

        The event window opens half an hour before the 17:00 UTC
        release (baseline-only demand, so the replay starts quiet) and
        runs six hours past it — far enough to cover the ramp peak and
        the start of the decay.  Per-region demand is the
        surge shape scaled by the adoption model's peak, breathing with
        the region's diurnal profile exactly as
        :meth:`~repro.workload.flashcrowd.UpdateDemandModel.demand_gbps`
        modulates surges.
        """
        model = AdoptionModel()
        peaks = model.surge_peaks()
        surges = {
            region: ReleaseSurge(
                release_time=_RELEASE_SECONDS,
                peak_gbps=peaks.get(region, 0.0),
                ramp_seconds=model.ramp_seconds,
                decay_seconds=model.decay_seconds,
            )
            for region in _REGIONS
        }
        # A small pre-release baseline per region (proportional to its
        # installed base) keeps the lead-in non-silent, like the
        # standing update traffic in the demand model.
        baseline = {
            region: 0.02 * peaks.get(region, 0.0) for region in _REGIONS
        }
        start = _RELEASE_SECONDS - _LEAD_SECONDS
        width = (_LEAD_SECONDS + _WINDOW_SECONDS) / _BINS
        out: list[_Bin] = []
        for index in range(_BINS):
            tau = start + (index + 0.5) * width
            weights = []
            for region in _REGIONS:
                profile = REGION_PROFILES[region]
                factor = profile.factor(tau)
                surge_factor = 1.0 + (factor - 1.0) * 0.5
                rate = (
                    baseline[region] * factor
                    + surges[region].rate_gbps(tau) * surge_factor
                )
                weights.append(max(0.0, rate))
            out.append(_Bin(start + index * width, width, tuple(weights)))
        return cls(total_requests, duration, out, kind="flash-crowd")

    @classmethod
    def uniform(
        cls,
        total_requests: int,
        duration: float,
    ) -> "ArrivalSchedule":
        """A constant-rate schedule with the adoption model's region mix."""
        model = AdoptionModel()
        weights = tuple(
            float(model.updating_devices(region)) for region in _REGIONS
        )
        return cls(
            total_requests,
            duration,
            [_Bin(0.0, duration, weights)],
            kind="uniform",
        )

    @classmethod
    def named(cls, name: str, total_requests: int, duration: float) -> "ArrivalSchedule":
        """CLI entry point: ``flash-crowd`` or ``uniform``."""
        if name == "flash-crowd":
            return cls.flash_crowd(total_requests, duration)
        if name == "uniform":
            return cls.uniform(total_requests, duration)
        raise ValueError(
            f"unknown arrival schedule {name!r} (valid: flash-crowd, uniform)"
        )

    # ------------------------------------------------------------------
    # iteration
    # ------------------------------------------------------------------

    def _event(self, seq: int) -> tuple[float, MappingRegion]:
        """(replay time, region) of arrival ``seq``; O(log bins)."""
        target = (seq + 0.5) / self.total_requests * self._total_weight
        index = min(bisect_left(self._cumulative, target), len(self._bins) - 1)
        b = self._bins[index]
        before = self._cumulative[index] - b.total * b.width_tau
        within = (target - before) / b.total if b.total > 0.0 else 0.0
        tau = b.start_tau + within
        t = (tau - self._bins[0].start_tau) / self._compression
        fraction = stable_fraction("arrival-region", seq)
        running = 0.0
        region = _REGIONS[-1]
        for candidate, weight in zip(_REGIONS, b.region_weights):
            running += weight / b.total if b.total > 0.0 else 0.0
            if fraction < running:
                region = candidate
                break
        return min(t, self.duration), region

    def events(self) -> Iterator[tuple[int, float, MappingRegion]]:
        """Yield ``(seq, replay_time, region)`` for every arrival, in order."""
        for seq in range(self.total_requests):
            t, region = self._event(seq)
            yield seq, t, region

    # ------------------------------------------------------------------
    # description
    # ------------------------------------------------------------------

    @property
    def peak_qps(self) -> float:
        """The highest instantaneous replay rate across bins."""
        best = 0.0
        for b in self._bins:
            share = b.total * b.width_tau / self._total_weight
            replay_width = b.width_tau / self._compression
            if replay_width > 0.0:
                best = max(best, self.total_requests * share / replay_width)
        return best

    @property
    def mean_qps(self) -> float:
        """Offered load averaged over the replay window."""
        return self.total_requests / self.duration

    def describe(self) -> str:
        return (
            f"{self.kind} arrival: {self.total_requests} requests over "
            f"{self.duration:.1f}s (mean {self.mean_qps:,.0f} qps, "
            f"peak {self.peak_qps:,.0f} qps, "
            f"compression {self._compression:,.0f}x)"
        )
