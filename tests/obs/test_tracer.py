"""Tests for repro.obs.tracer: events, span nesting, the ring buffer."""

import io
import json

import pytest

from repro.obs import tracer as tracer_module
from repro.obs import (
    NULL_TRACER,
    EventTracer,
    get_tracer,
    use_tracer,
)


class TestEvents:
    def test_event_recorded_with_fields(self):
        tracer = EventTracer()
        tracer.event("link_saturated", ts=100.0, link="transit-d-1", util=0.99)
        (record,) = tracer.records()
        assert record.kind == "event"
        assert record.name == "link_saturated"
        assert record.ts == 100.0
        assert record.fields == {"link": "transit-d-1", "util": 0.99}
        assert record.duration is None

    def test_find_and_first(self):
        tracer = EventTracer()
        tracer.event("a", ts=1.0, n=1)
        tracer.event("b", ts=2.0)
        tracer.event("a", ts=3.0, n=2)
        assert len(tracer.find("a")) == 2
        assert tracer.first("a").fields == {"n": 1}
        assert tracer.first("missing") is None


class TestSpans:
    def test_span_records_duration(self):
        tracer = EventTracer()
        with tracer.span("engine.step", ts=50.0):
            pass
        (record,) = tracer.records()
        assert record.kind == "span"
        assert record.ts == 50.0
        assert record.duration >= 0.0
        assert record.span_id is not None

    def test_nesting_sets_parent_ids(self):
        tracer = EventTracer()
        with tracer.span("outer", ts=0.0):
            with tracer.span("inner", ts=0.0):
                tracer.event("tick", ts=0.0)
        tick, inner, outer = tracer.records()
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert tick.parent_id == inner.span_id

    def test_annotate_adds_fields(self):
        tracer = EventTracer()
        with tracer.span("work", ts=0.0, phase="a") as span:
            span.annotate(items=7)
        (record,) = tracer.records()
        assert record.fields == {"phase": "a", "items": 7}

    def test_exception_marks_span_failed(self):
        tracer = EventTracer()
        with pytest.raises(ValueError):
            with tracer.span("work", ts=0.0):
                raise ValueError("boom")
        (record,) = tracer.records()
        assert record.fields.get("failed") is True


class TestRingBuffer:
    def test_capacity_bounds_buffer_and_counts_drops(self, monkeypatch):
        monkeypatch.setattr(tracer_module, "RING_CAPACITY", 3)
        tracer = EventTracer()
        for index in range(5):
            tracer.event("e", ts=float(index))
        assert len(tracer) == 3
        assert tracer.emitted == 5
        assert tracer.dropped == 2
        assert [r.ts for r in tracer.records()] == [2.0, 3.0, 4.0]

    def test_stream_receives_every_record(self, monkeypatch):
        monkeypatch.setattr(tracer_module, "RING_CAPACITY", 2)
        stream = io.StringIO()
        tracer = EventTracer(stream=stream)
        for index in range(4):
            tracer.event("e", ts=float(index))
        lines = stream.getvalue().splitlines()
        # the stream outlives the ring buffer
        assert len(lines) == 4
        assert json.loads(lines[0])["ts"] == 0.0


class TestJsonl:
    def test_lines_are_valid_json(self):
        tracer = EventTracer()
        tracer.event("release", ts=17.0, version="ios-11.0")
        with tracer.span("step", ts=18.0):
            pass
        parsed = [json.loads(line) for line in tracer.jsonl_lines()]
        assert parsed[0] == {
            "ts": 17.0,
            "kind": "event",
            "name": "release",
            "fields": {"version": "ios-11.0"},
        }
        assert parsed[1]["kind"] == "span"
        assert "duration_s" in parsed[1]


class TestNullTracer:
    def test_disabled_and_empty(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.event("anything", ts=0.0, x=1)
        with NULL_TRACER.span("anything", ts=0.0) as span:
            span.annotate(y=2)
        assert len(NULL_TRACER) == 0
        assert NULL_TRACER.records() == ()
        assert NULL_TRACER.first("anything") is None

    def test_default_is_null_and_override_scopes(self):
        assert not get_tracer().enabled
        tracer = EventTracer()
        with use_tracer(tracer):
            assert get_tracer() is tracer
        assert not get_tracer().enabled


class TestAsyncSpanNesting:
    """Span parentage must be task-local, not a shared stack.

    The pre-contextvars tracer kept one open-span stack per instance,
    so spans from interleaved asyncio tasks adopted each other as
    parents.  These are the regression tests for that bug.
    """

    def test_interleaved_tasks_keep_their_own_parents(self):
        import asyncio

        tracer = EventTracer()

        async def request(name, pause):
            with tracer.span(f"{name}.outer", ts=0.0):
                await asyncio.sleep(pause)
                with tracer.span(f"{name}.inner", ts=0.1):
                    await asyncio.sleep(pause)

        async def main():
            await asyncio.gather(
                request("a", 0.002), request("b", 0.001), request("c", 0.0)
            )

        asyncio.run(main())
        spans = {r.name: r for r in tracer.records()}
        for name in ("a", "b", "c"):
            assert spans[f"{name}.outer"].parent_id is None, name
            assert (
                spans[f"{name}.inner"].parent_id
                == spans[f"{name}.outer"].span_id
            ), name

    def test_concurrent_tasks_under_ambient_contexts(self):
        import asyncio

        from repro.obs.trace_context import TraceContext, use_context

        tracer = EventTracer()

        async def request(trace_id):
            with use_context(TraceContext(trace_id=trace_id)):
                with tracer.span("request", ts=0.0):
                    await asyncio.sleep(0.001)
                    with tracer.span("fetch", ts=0.1):
                        pass

        async def main():
            await asyncio.gather(*(request(i + 1) for i in range(6)))

        asyncio.run(main())
        by_trace = {}
        for record in tracer.records():
            by_trace.setdefault(record.trace_id, []).append(record)
        assert sorted(by_trace) == [1, 2, 3, 4, 5, 6]
        for trace_id, records in by_trace.items():
            spans = {r.name: r for r in records}
            assert spans["fetch"].parent_id == spans["request"].span_id

    def test_current_span_id_tracks_open_span(self):
        tracer = EventTracer()
        assert tracer.current_span_id() is None
        with tracer.span("outer", ts=0.0):
            outer_id = tracer.current_span_id()
            assert outer_id is not None
            with tracer.span("inner", ts=0.1):
                assert tracer.current_span_id() != outer_id
            assert tracer.current_span_id() == outer_id
        assert tracer.current_span_id() is None

    def test_stats_reports_sampling(self, monkeypatch):
        from repro.obs.trace_context import TraceContext, use_context

        monkeypatch.setattr(tracer_module, "RING_CAPACITY", 4)
        tracer = EventTracer()
        with use_context(TraceContext(trace_id=1, sampled=False)):
            tracer.event("dropped", ts=0.0)
        for index in range(6):
            tracer.event(f"kept{index}", ts=float(index))
        stats = tracer.stats()
        assert stats["sampled_out"] == 1
        assert stats["emitted"] == 6
        assert stats["buffered"] == 4
        assert stats["dropped"] == 2
