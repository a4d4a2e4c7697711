"""Flash-crowd demand: the iOS 11 release and its aftermath.

The release (Sep 19, 17h UTC) makes the update available to every
device at once; users then pull it over hours to days.  The model is a
per-region demand rate in Gbps:

* a **baseline** of ongoing Apple-update traffic (minor updates, app
  assets served through the same Meta-CDN), diurnally modulated;
* one **surge** per release event: a fast ramp-up (the first hour) into
  an exponential decay over ~a day and a half, also diurnally
  modulated — producing the elevated Sep 19-21 plateau and the return
  to normal that Figures 7 and 8 show.

A separate :class:`CdnBackground` models the *non-Apple* traffic the
third-party CDNs carry from the same server IPs: the reason Akamai's
traffic ratio only reaches 113 % of its (large) pre-event peak while
Limelight's reaches 438 % of its (small) one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from ..net.geo import MappingRegion
from .diurnal import APAC_PROFILE, EU_PROFILE, US_PROFILE, DiurnalProfile

__all__ = ["ReleaseSurge", "UpdateDemandModel", "CdnBackground", "REGION_PROFILES"]

REGION_PROFILES: dict[MappingRegion, DiurnalProfile] = {
    MappingRegion.EU: EU_PROFILE,
    MappingRegion.US: US_PROFILE,
    MappingRegion.APAC: APAC_PROFILE,
}


@dataclass(frozen=True)
class ReleaseSurge:
    """One release event's demand surge.

    ``peak_gbps`` is the region's surge amplitude before diurnal
    modulation; ``ramp_seconds`` the rise time to peak; ``decay_seconds``
    the exponential tail constant.
    """

    release_time: float
    peak_gbps: float
    ramp_seconds: float = 3600.0
    decay_seconds: float = 130_000.0  # ~1.5 days

    def __post_init__(self) -> None:
        if self.peak_gbps < 0:
            raise ValueError("peak_gbps cannot be negative")
        if self.ramp_seconds <= 0 or self.decay_seconds <= 0:
            raise ValueError("ramp and decay must be positive")

    def rate_gbps(self, now: float) -> float:
        """The surge's contribution at time ``now`` (no diurnal factor)."""
        elapsed = now - self.release_time
        if elapsed < 0:
            return 0.0
        if elapsed < self.ramp_seconds:
            return self.peak_gbps * (elapsed / self.ramp_seconds)
        return self.peak_gbps * math.exp(
            -(elapsed - self.ramp_seconds) / self.decay_seconds
        )


@dataclass
class UpdateDemandModel:
    """Apple-update demand per mapping region over time, each region
    breathing with its :data:`REGION_PROFILES` entry."""

    baseline_gbps: Mapping[MappingRegion, float]
    surges: dict[MappingRegion, list[ReleaseSurge]] = field(default_factory=dict)

    def add_release(
        self,
        release_time: float,
        peak_gbps: Mapping[MappingRegion, float],
        decay_seconds: float = 130_000.0,
    ) -> None:
        """Register a release event with per-region surge amplitudes,
        each ramping up over an hour."""
        for region, peak in peak_gbps.items():
            self.surges.setdefault(region, []).append(
                ReleaseSurge(release_time, peak, 3600.0, decay_seconds)
            )

    def demand_gbps(self, region: MappingRegion, now: float) -> float:
        """Total Apple-update demand offered by ``region`` at ``now``."""
        profile = REGION_PROFILES[region]
        baseline = self.baseline_gbps.get(region, 0.0) * profile.factor(now)
        surge = sum(s.rate_gbps(now) for s in self.surges.get(region, ()))
        # Surges are demand from people, so they breathe with the day too,
        # but less deeply: a release pulls users online off-peak as well.
        surge_factor = 1.0 + (profile.factor(now) - 1.0) * 0.5
        return baseline + surge * surge_factor


@dataclass(frozen=True)
class CdnBackground:
    """Non-Apple traffic carried by a CDN's delivery servers at an ISP.

    ``mean_gbps`` is the CDN's day-average background volume into the
    measured ISP; its diurnal swing follows the EU profile since the
    ISP's eyeballs are European.
    """

    mean_gbps: float

    def __post_init__(self) -> None:
        if self.mean_gbps < 0:
            raise ValueError("mean_gbps cannot be negative")

    def rate_gbps(self, now: float) -> float:
        """Background traffic at ``now``."""
        return self.mean_gbps * EU_PROFILE.factor(now)

    def peak_gbps(self) -> float:
        """The daily background peak (the Figure 7 100 % reference base)."""
        return self.mean_gbps * EU_PROFILE.peak_factor()
