"""Tests for repro.workload.adoption — population-derived demand."""

import pytest

from repro.net.geo import Continent, MappingRegion
from repro.simulation import ScenarioConfig
from repro.workload.adoption import DEFAULT_ADOPTION_SHARES, AdoptionModel
from repro.workload.population import DevicePopulation


def model_with(monkeypatch, **calibration):
    """An AdoptionModel under other calibration values."""
    for name, value in calibration.items():
        monkeypatch.setattr(AdoptionModel, name, value)
    return AdoptionModel()


class TestAdoptionModel:
    def test_surge_volume(self, monkeypatch):
        population = DevicePopulation({Continent.EUROPE: 1_000_000})
        model = model_with(
            monkeypatch,
            population=population,
            image_bytes=1e9,
            adoption_shares={MappingRegion.EU: 0.5},
        )
        assert model.surge_volume_bytes(MappingRegion.EU) == pytest.approx(5e14)
        assert model.updating_devices(MappingRegion.EU) == 500_000

    def test_peak_moves_the_volume(self, monkeypatch):
        population = DevicePopulation({Continent.EUROPE: 1_000_000})
        model = model_with(
            monkeypatch,
            population=population,
            image_bytes=1e9,
            adoption_shares={MappingRegion.EU: 0.1},
            ramp_seconds=2000.0,
            decay_seconds=100_000.0,
        )
        integral = model.shape_integral_seconds()
        assert integral == pytest.approx(101_000.0)
        peak = model.surge_peak_gbps(MappingRegion.EU)
        # peak * integral recovers the volume in bits.
        assert peak * 1e9 * integral == pytest.approx(
            model.surge_volume_bytes(MappingRegion.EU) * 8.0
        )

    def test_region_without_share_is_zero(self, monkeypatch):
        population = DevicePopulation({Continent.EUROPE: 1_000_000})
        model = model_with(
            monkeypatch, population=population,
            adoption_shares={MappingRegion.EU: 0.1},
        )
        assert model.surge_peak_gbps(MappingRegion.APAC) == 0.0

    def test_default_matches_calibrated_scenario(self):
        """The first-principles peaks agree with the hand calibration."""
        derived = AdoptionModel().surge_peaks()
        calibrated = ScenarioConfig().surge_peak_gbps
        for region in MappingRegion:
            assert derived[region] == pytest.approx(
                calibrated[region], rel=0.15
            ), region

    def test_default_shares_reflect_release_time_zones(self):
        # 17h UTC: EU evening > US morning > APAC night.
        assert (
            DEFAULT_ADOPTION_SHARES[MappingRegion.EU]
            > DEFAULT_ADOPTION_SHARES[MappingRegion.US]
            > DEFAULT_ADOPTION_SHARES[MappingRegion.APAC]
        )


class TestFromAdoption:
    def test_config_takes_derived_peaks(self):
        model = AdoptionModel()
        config = ScenarioConfig.from_adoption(model, global_probe_count=7)
        assert config.surge_peak_gbps == model.surge_peaks()
        assert config.surge_decay_seconds == model.decay_seconds
        assert config.global_probe_count == 7

    def test_bigger_population_bigger_event(self, monkeypatch):
        from repro.workload.population import WORLD_POPULATION

        single = AdoptionModel().surge_peak_gbps(MappingRegion.EU)
        doubled = model_with(
            monkeypatch, population=WORLD_POPULATION.scaled(2.0)
        ).surge_peak_gbps(MappingRegion.EU)
        assert doubled == pytest.approx(2.0 * single, rel=0.01)
