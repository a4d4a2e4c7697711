"""Tests for repro.obs.registry: metric semantics, labels, defaults."""

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    MetricError,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    use_registry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = MetricsRegistry().counter("requests_total")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("requests_total")
        with pytest.raises(MetricError):
            counter.inc(-1)

    def test_labelled_children_are_independent(self):
        counter = MetricsRegistry().counter("q", "", ("operator",))
        counter.labels("Apple").inc(3)
        counter.labels("Akamai").inc()
        assert counter.labels("Apple").value == 3
        assert counter.labels("Akamai").value == 1

    def test_labels_cached_per_tuple(self):
        counter = MetricsRegistry().counter("q", "", ("operator",))
        assert counter.labels("Apple") is counter.labels("Apple")

    def test_wrong_label_arity_rejected(self):
        counter = MetricsRegistry().counter("q", "", ("a", "b"))
        with pytest.raises(MetricError):
            counter.labels("only-one")


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("demand_gbps")
        gauge.set(10.0)
        gauge.inc(5.0)
        gauge.dec(2.0)
        assert gauge.value == 13.0

    def test_gauge_may_go_negative(self):
        gauge = MetricsRegistry().gauge("delta")
        gauge.dec(4.0)
        assert gauge.value == -4.0


class TestHistogram:
    def test_observations_land_in_buckets(self):
        histogram = MetricsRegistry().histogram(
            "latency", buckets=(0.1, 1.0, 10.0)
        )
        child = histogram.labels()
        for value in (0.05, 0.5, 5.0, 50.0):
            child.observe(value)
        assert child.count == 4
        assert child.sum == pytest.approx(55.55)
        assert child.cumulative_buckets() == [
            (0.1, 1),
            (1.0, 2),
            (10.0, 3),
            (float("inf"), 4),
        ]

    def test_mean(self):
        child = MetricsRegistry().histogram("x", buckets=(1.0,)).labels()
        assert child.mean == 0.0
        child.observe(2.0)
        child.observe(4.0)
        assert child.mean == 3.0

    def test_buckets_sorted_and_deduped(self):
        histogram = MetricsRegistry().histogram("x", buckets=(5.0, 1.0, 2.0))
        assert histogram.buckets == (1.0, 2.0, 5.0)
        with pytest.raises(MetricError):
            MetricsRegistry().histogram("y", buckets=(1.0, 1.0))

    def test_default_buckets(self):
        histogram = MetricsRegistry().histogram("x")
        assert histogram.buckets == DEFAULT_BUCKETS


class TestRegistry:
    def test_registration_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("hits", "Hits", ("op",))
        second = registry.counter("hits", "Hits", ("op",))
        assert first is second
        assert len(registry) == 1

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(MetricError):
            registry.gauge("x")

    def test_label_schema_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x", "", ("a",))
        with pytest.raises(MetricError):
            registry.counter("x", "", ("b",))

    def test_bucket_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("x", buckets=(1.0, 2.0))
        with pytest.raises(MetricError):
            registry.histogram("x", buckets=(1.0, 3.0))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError):
            registry.counter("bad name")
        with pytest.raises(MetricError):
            registry.counter("1starts_with_digit")
        with pytest.raises(MetricError):
            registry.counter("ok", "", ("bad-label",))

    def test_collect_is_name_ordered(self):
        registry = MetricsRegistry()
        registry.counter("zeta")
        registry.counter("alpha")
        assert [f.name for f in registry.collect()] == ["alpha", "zeta"]

    def test_contains_and_get(self):
        registry = MetricsRegistry()
        family = registry.gauge("present")
        assert "present" in registry
        assert registry.get("present") is family
        assert registry.get("absent") is None


class TestNullRegistry:
    def test_disabled_and_empty(self):
        assert NULL_REGISTRY.enabled is False
        assert len(NULL_REGISTRY) == 0
        assert list(NULL_REGISTRY.collect()) == []

    def test_all_instruments_share_the_noop_singleton(self):
        registry = NullRegistry()
        counter = registry.counter("a")
        gauge = registry.gauge("b", "", ("x",))
        histogram = registry.histogram("c")
        assert counter is gauge is histogram
        assert counter.labels("anything") is counter

    def test_noop_calls_absorb_everything(self):
        instrument = NULL_REGISTRY.counter("a")
        instrument.inc(5)
        instrument.set(3)
        instrument.observe(1.0)
        instrument.dec()
        assert instrument.value == 0.0
        assert instrument.count == 0


class TestDefaultRegistry:
    def test_default_is_null(self):
        assert get_registry() is NULL_REGISTRY or not get_registry().enabled

    def test_use_registry_scopes_the_override(self):
        registry = MetricsRegistry()
        before = get_registry()
        with use_registry(registry) as installed:
            assert installed is registry
            assert get_registry() is registry
        assert get_registry() is before

    def test_use_registry_restores_on_error(self):
        before = get_registry()
        with pytest.raises(RuntimeError):
            with use_registry(MetricsRegistry()):
                raise RuntimeError("boom")
        assert get_registry() is before


class TestHistogramQuantile:
    def _histogram(self, buckets=(1.0, 2.0, 4.0, 8.0)):
        return MetricsRegistry().histogram("latency", buckets=buckets)

    def test_empty_histogram_returns_zero(self):
        assert self._histogram().quantile(0.5) == 0.0

    def test_invalid_q_rejected(self):
        histogram = self._histogram()
        for q in (-0.1, 1.1, 2.0):
            with pytest.raises(MetricError):
                histogram.quantile(q)

    def test_single_bucket_interpolates_from_lower_bound(self):
        histogram = self._histogram()
        for _ in range(10):
            histogram.observe(1.5)  # all in the (1, 2] bucket
        # Median rank 5 of 10 sits halfway through the bucket.
        assert histogram.quantile(0.5) == pytest.approx(1.5)
        assert histogram.quantile(1.0) == pytest.approx(2.0)

    def test_first_bucket_interpolates_from_zero(self):
        histogram = self._histogram()
        for _ in range(4):
            histogram.observe(0.5)
        assert histogram.quantile(0.5) == pytest.approx(0.5)

    def test_quantiles_spread_across_buckets(self):
        histogram = self._histogram()
        # 50 in (0,1], 30 in (1,2], 15 in (2,4], 5 in (4,8].
        for value, count in ((0.5, 50), (1.5, 30), (3.0, 15), (6.0, 5)):
            for _ in range(count):
                histogram.observe(value)
        assert histogram.quantile(0.5) == pytest.approx(1.0)
        # Rank 95 is the 15th of 15 in the (2, 4] bucket.
        assert histogram.quantile(0.95) == pytest.approx(4.0)
        # Rank 99 sits 4/5 through the (4, 8] bucket.
        assert histogram.quantile(0.99) == pytest.approx(4.0 + 4.0 * 0.8)

    def test_overflow_observations_clamp_to_last_bound(self):
        histogram = self._histogram()
        for _ in range(10):
            histogram.observe(100.0)  # beyond every bucket: +Inf only
        assert histogram.quantile(0.99) == 8.0

    def test_monotone_in_q(self):
        histogram = self._histogram()
        for value in (0.2, 0.9, 1.1, 1.9, 3.5, 7.0, 50.0):
            histogram.observe(value)
        quantiles = [histogram.quantile(q / 20.0) for q in range(21)]
        assert quantiles == sorted(quantiles)

    def test_labelled_children_have_independent_quantiles(self):
        family = MetricsRegistry().histogram(
            "latency", labelnames=("op",), buckets=(1.0, 2.0)
        )
        family.labels("fast").observe(0.5)
        family.labels("slow").observe(1.5)
        assert family.labels("fast").quantile(1.0) == pytest.approx(1.0)
        assert family.labels("slow").quantile(1.0) == pytest.approx(2.0)

    def test_null_instrument_quantile_is_zero(self):
        assert NULL_REGISTRY.histogram("latency").quantile(0.99) == 0.0


class TestPercentileSummary:
    def test_panel_keys_and_ordering(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "latency", buckets=(0.001, 0.01, 0.1, 1.0)
        ).labels()
        for value in (0.0005, 0.002, 0.05, 0.02, 0.3):
            hist.observe(value)
        panel = hist.percentile_summary()
        assert set(panel) == {"p50", "p95", "p99", "p999"}
        assert panel["p50"] <= panel["p95"] <= panel["p99"] <= panel["p999"]

    def test_empty_histogram_is_all_zero(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency", buckets=(0.1, 1.0)).labels()
        assert hist.percentile_summary() == {
            "p50": 0.0, "p95": 0.0, "p99": 0.0, "p999": 0.0,
        }

    def test_single_bucket_histogram(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency", buckets=(0.5,)).labels()
        hist.observe(0.1)
        panel = hist.percentile_summary()
        # Everything fell in the one finite bucket: percentiles
        # interpolate inside (0, 0.5] and never exceed its bound.
        assert panel["p50"] == pytest.approx(0.25)
        assert 0.0 < panel["p50"] <= panel["p999"] <= 0.5

    def test_overflow_bucket_clamps_to_last_finite_bound(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency", buckets=(0.1,)).labels()
        hist.observe(5.0)  # lands in +Inf
        panel = hist.percentile_summary()
        assert panel["p999"] == 0.1  # clamped, never inf

    def test_null_registry_summary_is_zero(self):
        panel = NULL_REGISTRY.histogram("latency").percentile_summary()
        assert panel == {"p50": 0.0, "p95": 0.0, "p99": 0.0, "p999": 0.0}
