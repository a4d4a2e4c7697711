"""Diurnal traffic patterns.

Section 5.3 notes that while Apple's CDN ran flat-out through Sep 20,
"the other CDNs show a diurnal traffic pattern".  The model here is the
standard eyeball-traffic day shape: a broad evening peak, a deep
early-morning trough, expressed as a multiplicative factor around 1.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

__all__ = ["DiurnalProfile", "EU_PROFILE", "US_PROFILE", "APAC_PROFILE"]

_DAY = 86400.0


@dataclass(frozen=True)
class DiurnalProfile:
    """A sinusoidal day shape with an evening peak.

    ``peak_hour_utc`` is when local evening peak falls in UTC terms
    (19h local in central Europe is ~18h UTC); ``amplitude`` is the
    swing around the mean (0.6 means the factor spans 0.4 .. 1.6).
    The factor integrates to ~1.0 over a day, so multiplying a mean
    rate by it preserves daily volume.
    """

    peak_hour_utc: float
    amplitude: ClassVar[float] = 0.6

    def __post_init__(self) -> None:
        if not 0.0 <= self.peak_hour_utc < 24.0:
            raise ValueError("peak_hour_utc must be in [0, 24)")

    def factor(self, now: float) -> float:
        """The demand multiplier at simulation time ``now``."""
        hour = (now % _DAY) / 3600.0
        phase = 2.0 * math.pi * (hour - self.peak_hour_utc) / 24.0
        return 1.0 + self.amplitude * math.cos(phase)

    def peak_factor(self) -> float:
        """The maximum factor over a day."""
        return 1.0 + self.amplitude


# Regional eyeball profiles: evening peaks in the dominant time zones.
EU_PROFILE = DiurnalProfile(peak_hour_utc=18.0)
US_PROFILE = DiurnalProfile(peak_hour_utc=1.0)  # ~20h Eastern
APAC_PROFILE = DiurnalProfile(peak_hour_utc=11.0)  # ~20h JST
