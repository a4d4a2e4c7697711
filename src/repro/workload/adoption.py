"""From device populations to flash-crowd demand.

The scenario's surge amplitudes are given in Gbps; this module derives
them from first principles instead: a region holds so many devices
(:data:`~repro.workload.population.WORLD_POPULATION` totals ~1 billion,
the paper's estimate), a share of them pulls the ~2-3 GB image within
the surge, and the surge shape (linear ramp + exponential decay) fixes
the peak rate that moves that volume.

With the 2017-era populations, a ~10 % EU early-adoption share yields a
~4.3 Tbps EU surge peak — within a few percent of the value the
scenario was calibrated to from the paper's traffic ratios, which is a
useful cross-check that the model's scales hang together.
"""

from __future__ import annotations

from typing import Mapping

from ..net.geo import MappingRegion
from .population import DevicePopulation, WORLD_POPULATION

__all__ = ["AdoptionModel", "DEFAULT_ADOPTION_SHARES"]

# Early-adoption share of the installed base per region.  The release
# lands at 17h UTC: evening in Europe (immediate updates), morning in
# the US (spread into the following day), night in APAC.
DEFAULT_ADOPTION_SHARES: dict[MappingRegion, float] = {
    MappingRegion.EU: 0.100,
    MappingRegion.US: 0.065,
    MappingRegion.APAC: 0.022,
}


class AdoptionModel:
    """Surge sizing from population, image size and adoption shares:
    the 2017 world, a 2.8 GB image, a 1 h ramp and a 130 000 s decay."""

    population: DevicePopulation = WORLD_POPULATION
    image_bytes = 2.8e9
    adoption_shares: Mapping[MappingRegion, float] = DEFAULT_ADOPTION_SHARES
    ramp_seconds = 3600.0
    decay_seconds = 130_000.0

    def surge_volume_bytes(self, region: MappingRegion) -> float:
        """Bytes the surge must move in ``region``."""
        devices = self.population.by_region().get(region, 0)
        share = self.adoption_shares.get(region, 0.0)
        return devices * share * self.image_bytes

    def shape_integral_seconds(self) -> float:
        """The integral of the unit surge shape over all time.

        A linear ramp to 1 over ``ramp_seconds`` contributes half its
        width; the exponential tail contributes its time constant.
        """
        return self.ramp_seconds / 2.0 + self.decay_seconds

    def surge_peak_gbps(self, region: MappingRegion) -> float:
        """The surge amplitude that moves the region's volume."""
        volume_bits = self.surge_volume_bytes(region) * 8.0
        return volume_bits / self.shape_integral_seconds() / 1e9

    def surge_peaks(self) -> dict[MappingRegion, float]:
        """Amplitudes for every region (the ScenarioConfig input)."""
        return {region: self.surge_peak_gbps(region) for region in MappingRegion}

    def updating_devices(self, region: MappingRegion) -> int:
        """How many devices the surge represents in ``region``."""
        devices = self.population.by_region().get(region, 0)
        return int(devices * self.adoption_shares.get(region, 0.0))
