"""A fluid model of concurrent downloads under capacity sharing.

The paper sizes infrastructure in delivery capacity ("a single Apple
CDN IP represents the download capacity of four servers"); what users
experience during a flash crowd is the *download completion time* that
capacity allows.  This module provides a processor-sharing fluid model:
arrivals join a pool of active downloads, the fleet's capacity is
shared equally (capped by the per-client access rate), and downloads
complete as their remaining bytes drain.

It answers the what-if questions the Meta-CDN design exists for: how
long would the iOS 11 download have taken had Apple *not* offloaded —
see ``examples/whatif_no_offload.py`` and the capacity ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, Optional

__all__ = ["DownloadFluidModel", "FluidStats"]


@dataclass(frozen=True)
class FluidStats:
    """The outcome of one fluid-model run."""

    started: float  # downloads begun
    completed: float  # downloads finished within the horizon
    peak_active: float  # maximum concurrent downloads
    mean_completion_seconds: float  # average over completed downloads
    peak_utilization: float  # fleet fill level at the worst instant

    @property
    def completion_ratio(self) -> float:
        """Share of started downloads that finished in the horizon."""
        if self.started == 0:
            return 0.0
        return min(1.0, self.completed / self.started)


@dataclass
class DownloadFluidModel:
    """Processor sharing of ``capacity_gbps`` over active downloads.

    ``client_gbps`` caps what any single client can pull (access-line
    speed); below saturation everyone downloads at that rate, above it
    the fleet capacity is divided equally — the standard fluid view of
    a TCP-fair bottleneck.
    """

    capacity_gbps: float
    image_bytes: float = 2.8e9
    client_gbps: ClassVar[float] = 0.05  # 50 Mbit/s access lines (2017-ish)

    def __post_init__(self) -> None:
        if self.capacity_gbps <= 0:
            raise ValueError("capacity_gbps must be positive")
        if self.image_bytes <= 0:
            raise ValueError("image_bytes must be positive")

    def per_client_gbps(self, active: float) -> float:
        """The rate each of ``active`` concurrent downloads gets."""
        if active <= 0:
            return self.client_gbps
        return min(self.client_gbps, self.capacity_gbps / active)

    def run(
        self,
        arrivals_per_second: Callable[[float], float],
        horizon_seconds: float,
        step_seconds: float = 60.0,
    ) -> FluidStats:
        """Integrate the fluid equations over ``horizon_seconds``.

        The active pool is tracked as cohorts (arrival step, remaining
        bytes per download, cohort size); each step every cohort drains
        at the shared rate, and cohorts whose remaining bytes reach
        zero complete.  This keeps completion times exact under the
        fluid approximation without per-download state.
        """
        if horizon_seconds <= 0 or step_seconds <= 0:
            raise ValueError("horizon and step must be positive")
        cohorts: list[list[float]] = []  # [start_time, remaining_bytes, count]
        started = 0.0
        completed = 0.0
        completion_time_sum = 0.0
        peak_active = 0.0
        peak_utilization = 0.0

        now = 0.0
        while now < horizon_seconds:
            rate = arrivals_per_second(now)
            if rate > 0:
                cohorts.append([now, self.image_bytes, rate * step_seconds])
                started += rate * step_seconds
            active = sum(cohort[2] for cohort in cohorts)
            peak_active = max(peak_active, active)
            share = self.per_client_gbps(active)
            if active > 0:
                peak_utilization = max(
                    peak_utilization,
                    min(1.0, active * share / self.capacity_gbps),
                )
            drained = share * 1e9 / 8.0 * step_seconds
            survivors = []
            for cohort in cohorts:
                cohort[1] -= drained
                if cohort[1] <= 0:
                    completed += cohort[2]
                    completion_time_sum += (now + step_seconds - cohort[0]) * cohort[2]
                else:
                    survivors.append(cohort)
            cohorts = survivors
            now += step_seconds

        mean_completion = (
            completion_time_sum / completed if completed > 0 else float("inf")
        )
        return FluidStats(
            started=started,
            completed=completed,
            peak_active=peak_active,
            mean_completion_seconds=mean_completion,
            peak_utilization=peak_utilization,
        )

    def unloaded_completion_seconds(self) -> float:
        """Download time with the fleet idle (client-line bound)."""
        return self.image_bytes * 8.0 / (self.client_gbps * 1e9)
