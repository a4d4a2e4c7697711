"""Tests for repro.cdn.loadmodel — the download fluid model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdn.loadmodel import DownloadFluidModel


def constant(rate):
    return lambda now: rate


class TestPerClientRate:
    def test_unloaded_gets_line_rate(self):
        model = DownloadFluidModel(capacity_gbps=100.0)
        assert model.per_client_gbps(0) == model.client_gbps
        assert model.per_client_gbps(10) == model.client_gbps

    def test_saturated_shares_equally(self):
        model = DownloadFluidModel(capacity_gbps=100.0)
        # 100 G / 0.05 G = 2000 clients saturate; beyond that they share.
        assert model.per_client_gbps(4000) == pytest.approx(0.025)

    def test_validation(self):
        with pytest.raises(ValueError):
            DownloadFluidModel(capacity_gbps=0)
        with pytest.raises(ValueError):
            DownloadFluidModel(capacity_gbps=1, image_bytes=0)


class TestFluidRun:
    def test_light_load_completes_at_line_rate(self):
        model = DownloadFluidModel(capacity_gbps=1000.0, image_bytes=2.8e9)
        stats = model.run(constant(1.0), horizon_seconds=3600.0, step_seconds=10.0)
        expected = model.unloaded_completion_seconds()  # 448 s
        assert stats.completed > 0
        assert stats.mean_completion_seconds == pytest.approx(expected, rel=0.1)
        assert stats.peak_utilization < 0.2

    def test_overload_stretches_completions(self):
        light = DownloadFluidModel(capacity_gbps=1000.0)
        heavy = DownloadFluidModel(capacity_gbps=20.0)
        arrivals = constant(2.0)
        fast = light.run(arrivals, horizon_seconds=7200.0, step_seconds=30.0)
        slow = heavy.run(arrivals, horizon_seconds=7200.0, step_seconds=30.0)
        assert slow.mean_completion_seconds > 2 * fast.mean_completion_seconds
        assert slow.peak_utilization == pytest.approx(1.0)
        assert slow.peak_active > fast.peak_active

    def test_no_arrivals(self):
        model = DownloadFluidModel(capacity_gbps=10.0)
        stats = model.run(constant(0.0), horizon_seconds=600.0)
        assert stats.started == 0
        assert stats.completion_ratio == 0.0

    def test_burst_drains_after_arrivals_stop(self):
        model = DownloadFluidModel(capacity_gbps=100.0)

        def burst(now):
            return 50.0 if now < 600.0 else 0.0

        stats = model.run(burst, horizon_seconds=7200.0, step_seconds=30.0)
        assert stats.completion_ratio == pytest.approx(1.0)

    def test_validation(self):
        model = DownloadFluidModel(capacity_gbps=10.0)
        with pytest.raises(ValueError):
            model.run(constant(1.0), horizon_seconds=0.0)

    @settings(max_examples=20, deadline=None)
    @given(
        st.floats(min_value=1.0, max_value=100.0),
        st.floats(min_value=0.1, max_value=20.0),
    )
    def test_conservation_property(self, capacity, rate):
        """Started = completed + still-active, and capacity is honoured."""
        model = DownloadFluidModel(capacity_gbps=capacity, image_bytes=1e8)
        stats = model.run(constant(rate), horizon_seconds=1800.0, step_seconds=30.0)
        assert stats.completed <= stats.started + 1e-6
        assert stats.peak_utilization <= 1.0 + 1e-9
        # Work conservation: completed bytes cannot exceed what the
        # fleet could possibly have delivered.
        max_bytes = capacity * 1e9 / 8.0 * 1800.0
        assert stats.completed * model.image_bytes <= max_bytes * (1 + 1e-6)
