"""Arrival schedules: determinism and the crowd shape."""

import pytest

from repro.net.geo import MappingRegion
from repro.workload.arrival import ArrivalSchedule


class TestFlashCrowdSchedule:
    def test_deterministic_across_builds(self):
        first = list(ArrivalSchedule.flash_crowd(500, 5.0).events())
        second = list(ArrivalSchedule.flash_crowd(500, 5.0).events())
        assert first == second

    def test_every_arrival_in_window_and_ordered(self):
        schedule = ArrivalSchedule.flash_crowd(1000, 4.0)
        events = list(schedule.events())
        assert len(events) == 1000
        assert [seq for seq, _, _ in events] == list(range(1000))
        times = [t for _, t, _ in events]
        assert all(0.0 <= t <= 4.0 for t in times)
        assert times == sorted(times)
        assert all(isinstance(r, MappingRegion) for _, _, r in events)

    def test_crowd_is_peaked_uniform_is_flat(self):
        crowd = ArrivalSchedule.flash_crowd(2000, 5.0)
        flat = ArrivalSchedule.uniform(2000, 5.0)
        # The release ramp concentrates arrivals: the replay's peak rate
        # must clearly exceed its mean, while the uniform schedule's
        # peak *is* its mean.
        assert crowd.peak_qps > 1.2 * crowd.mean_qps
        assert flat.peak_qps == pytest.approx(flat.mean_qps)

    def test_quiet_lead_in_before_the_release(self):
        # The window opens half an hour before release with
        # baseline-only demand: the first decile of arrivals must span
        # a longer stretch of replay time than the busiest decile.
        schedule = ArrivalSchedule.flash_crowd(1000, 10.0)
        times = [t for _, t, _ in schedule.events()]
        first_decile = times[100] - times[0]
        # Busiest decile: the narrowest 100-arrival window.
        narrowest = min(
            times[i + 100] - times[i] for i in range(0, 900, 50)
        )
        assert narrowest < first_decile

    def test_multiple_regions_present(self):
        regions = {r for _, _, r in ArrivalSchedule.flash_crowd(800, 2.0).events()}
        assert len(regions) >= 3


class TestConstructors:
    def test_named_dispatch(self):
        assert ArrivalSchedule.named("flash-crowd", 10, 1.0).kind == "flash-crowd"
        assert ArrivalSchedule.named("uniform", 10, 1.0).kind == "uniform"
        with pytest.raises(ValueError, match="unknown arrival schedule"):
            ArrivalSchedule.named("bursty", 10, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ArrivalSchedule.uniform(0, 1.0)
        with pytest.raises(ValueError):
            ArrivalSchedule.uniform(10, 0.0)

    def test_describe_mentions_shape_and_rates(self):
        text = ArrivalSchedule.flash_crowd(100, 2.0).describe()
        assert "flash-crowd" in text
        assert "qps" in text
