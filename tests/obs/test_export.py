"""Tests for repro.obs.export: exposition rendering, parsing, tables."""

import json
import math

import pytest

from repro.obs import (
    EventTracer,
    ExpositionError,
    MetricsRegistry,
    parse_exposition,
    render_exposition,
    render_trace_jsonl,
    summary_table,
    write_metrics,
    write_trace,
)


@pytest.fixture
def registry():
    reg = MetricsRegistry()
    queries = reg.counter("dns_queries_total", "DNS queries", ("operator",))
    queries.labels("Apple").inc(10)
    queries.labels("Akamai").inc(3)
    reg.gauge("demand_gbps", "EU demand").set(812.5)
    hist = reg.histogram("step_seconds", "Step wall time", buckets=(0.1, 1.0))
    hist.observe(0.05)
    hist.observe(0.5)
    hist.observe(5.0)
    return reg


class TestRender:
    def test_help_and_type_lines(self, registry):
        text = render_exposition(registry)
        assert "# HELP dns_queries_total DNS queries" in text
        assert "# TYPE dns_queries_total counter" in text
        assert "# TYPE demand_gbps gauge" in text
        assert "# TYPE step_seconds histogram" in text

    def test_labelled_samples(self, registry):
        text = render_exposition(registry)
        assert 'dns_queries_total{operator="Apple"} 10' in text
        assert 'dns_queries_total{operator="Akamai"} 3' in text

    def test_histogram_buckets_are_cumulative(self, registry):
        text = render_exposition(registry)
        assert 'step_seconds_bucket{le="0.1"} 1' in text
        assert 'step_seconds_bucket{le="1"} 2' in text
        assert 'step_seconds_bucket{le="+Inf"} 3' in text
        assert "step_seconds_sum 5.55" in text
        assert "step_seconds_count 3" in text

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("x", "", ("path",)).labels('a"b\\c\nd').inc()
        text = render_exposition(reg)
        assert 'path="a\\"b\\\\c\\nd"' in text
        parsed = parse_exposition(text)
        assert parsed["x"].value(**{"path": 'a"b\\c\nd'}) == 1

    def test_empty_registry_renders_empty(self):
        assert render_exposition(MetricsRegistry()) == ""


class TestParse:
    def test_round_trip(self, registry):
        families = parse_exposition(render_exposition(registry))
        assert set(families) == {
            "dns_queries_total", "demand_gbps", "step_seconds",
        }
        queries = families["dns_queries_total"]
        assert queries.kind == "counter"
        assert queries.help == "DNS queries"
        assert queries.value(operator="Apple") == 10
        assert families["demand_gbps"].value() == 812.5

    def test_histogram_samples_attributed_to_family(self, registry):
        families = parse_exposition(render_exposition(registry))
        hist = families["step_seconds"]
        assert hist.kind == "histogram"
        assert hist.samples["step_seconds_count", ()] == 3
        assert hist.samples["step_seconds_bucket", (("le", "+Inf"),)] == 3
        assert hist.samples["step_seconds_sum", ()] == pytest.approx(5.55)

    def test_special_values(self):
        families = parse_exposition("x 10\ny +Inf\nz NaN\n")
        assert families["x"].value() == 10
        assert families["y"].value() == float("inf")
        assert math.isnan(families["z"].value())

    def test_garbage_rejected(self):
        with pytest.raises(ExpositionError):
            parse_exposition("!!! not a sample line")
        with pytest.raises(ExpositionError):
            parse_exposition("x notanumber")


class TestSummaryTable:
    def test_empty(self):
        assert summary_table(MetricsRegistry()) == "(no metrics recorded)"

    def test_rows_cover_every_series(self, registry):
        table = summary_table(registry)
        lines = table.splitlines()
        assert lines[0].startswith("metric")
        assert any("operator=Apple" in line and "10" in line for line in lines)
        assert any(
            "step_seconds" in line and "count=3" in line for line in lines
        )


class TestFileOutput:
    def test_write_metrics(self, registry, tmp_path):
        path = tmp_path / "metrics.prom"
        write_metrics(registry, str(path))
        families = parse_exposition(path.read_text())
        assert families["dns_queries_total"].value(operator="Apple") == 10

    def test_write_trace(self, tmp_path):
        tracer = EventTracer()
        tracer.event("release", ts=1.0, version="ios-11.0")
        tracer.event("offload_engaged", ts=2.0, region="eu")
        path = tmp_path / "trace.jsonl"
        write_trace(tracer, str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["name"] == "offload_engaged"

    def test_render_trace_jsonl_empty(self):
        assert render_trace_jsonl(EventTracer()) == ""
