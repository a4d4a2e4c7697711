"""Tests for repro.workload population, diurnal and flash-crowd models."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.geo import Continent, MappingRegion
from repro.workload.diurnal import EU_PROFILE, DiurnalProfile
from repro.workload.flashcrowd import (
    CdnBackground,
    ReleaseSurge,
    UpdateDemandModel,
)
from repro.workload.population import WORLD_POPULATION, DevicePopulation


class TestDevicePopulation:
    def test_world_is_about_a_billion(self):
        assert 0.9e9 <= WORLD_POPULATION.total <= 1.1e9

    def test_every_continent_populated(self):
        for continent in Continent:
            assert WORLD_POPULATION.devices(continent) > 0

    def test_by_region_sums_to_total(self):
        regions = WORLD_POPULATION.by_region()
        assert sum(regions.values()) == WORLD_POPULATION.total
        assert set(regions) == set(MappingRegion)

    def test_shares_sum_to_one(self):
        total = sum(WORLD_POPULATION.share(c) for c in Continent)
        assert total == pytest.approx(1.0)

    def test_scaled(self):
        small = WORLD_POPULATION.scaled(0.001)
        assert small.total == pytest.approx(WORLD_POPULATION.total * 0.001, rel=0.01)
        with pytest.raises(ValueError):
            WORLD_POPULATION.scaled(0)

    def test_negative_population_rejected(self):
        with pytest.raises(ValueError):
            DevicePopulation({Continent.EUROPE: -1})


class TestDiurnalProfile:
    def test_peak_at_peak_hour(self):
        profile = DiurnalProfile(peak_hour_utc=18.0)
        assert profile.factor(18 * 3600.0) == pytest.approx(1.6)

    def test_trough_opposite_peak(self):
        profile = DiurnalProfile(peak_hour_utc=18.0)
        assert profile.factor(6 * 3600.0) == pytest.approx(0.4)

    def test_daily_mean_is_one(self):
        profile = EU_PROFILE
        samples = [profile.factor(hour * 3600.0) for hour in range(24)]
        assert sum(samples) / len(samples) == pytest.approx(1.0, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiurnalProfile(peak_hour_utc=24.0)

    @given(st.floats(min_value=0, max_value=10 * 86400))
    def test_factor_bounds_property(self, now):
        profile = DiurnalProfile(peak_hour_utc=18.0)
        assert 0.4 - 1e-9 <= profile.factor(now) <= 1.6 + 1e-9


class TestReleaseSurge:
    def test_zero_before_release(self):
        surge = ReleaseSurge(release_time=1000.0, peak_gbps=100.0)
        assert surge.rate_gbps(999.0) == 0.0

    def test_linear_ramp(self):
        surge = ReleaseSurge(1000.0, 100.0, ramp_seconds=100.0)
        assert surge.rate_gbps(1050.0) == pytest.approx(50.0)
        assert surge.rate_gbps(1100.0) == pytest.approx(100.0)

    def test_exponential_decay(self):
        surge = ReleaseSurge(0.0, 100.0, ramp_seconds=1.0, decay_seconds=100.0)
        assert surge.rate_gbps(101.0) == pytest.approx(100.0 / 2.718281828, rel=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            ReleaseSurge(0.0, -1.0)
        with pytest.raises(ValueError):
            ReleaseSurge(0.0, 1.0, ramp_seconds=0)


class TestUpdateDemandModel:
    def _model(self):
        model = UpdateDemandModel(
            baseline_gbps={region: 100.0 for region in MappingRegion}
        )
        model.add_release(86400.0, {MappingRegion.EU: 500.0})
        return model

    def test_baseline_only_before_release(self):
        model = self._model()
        demand = model.demand_gbps(MappingRegion.EU, 0.0)
        assert 40.0 <= demand <= 160.0  # diurnal around 100

    def test_surge_raises_demand(self):
        model = self._model()
        before = model.demand_gbps(MappingRegion.EU, 86400.0 - 3600.0)
        after = model.demand_gbps(MappingRegion.EU, 86400.0 + 3600.0)
        assert after > before + 200.0

    def test_surge_only_in_target_region(self):
        model = self._model()
        at = 86400.0 + 3600.0
        assert model.demand_gbps(MappingRegion.US, at) < 200.0

    def test_demand_decays_back(self):
        model = self._model()
        peak = model.demand_gbps(MappingRegion.EU, 86400.0 + 3600.0)
        week_later = model.demand_gbps(MappingRegion.EU, 86400.0 * 8)
        assert week_later < peak / 3

    def test_multiple_releases_stack(self):
        model = self._model()
        model.add_release(86400.0 * 2, {MappingRegion.EU: 500.0})
        double = model.demand_gbps(MappingRegion.EU, 86400.0 * 2 + 3600.0)
        assert double > 500.0


class TestCdnBackground:
    def test_rate_follows_profile(self):
        background = CdnBackground(100.0)
        assert background.rate_gbps(18 * 3600.0) == pytest.approx(160.0)

    def test_peak(self):
        assert CdnBackground(100.0).peak_gbps() == pytest.approx(160.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CdnBackground(-1.0)
