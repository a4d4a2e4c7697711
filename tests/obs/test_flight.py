"""Flight recorder: ring-buffer dumps on tripped incidents."""

import json

import pytest

from repro.obs import flight as flight_module
from repro.obs import (
    EventTracer,
    FlightRecorder,
    get_flight_recorder,
    use_flight_recorder,
)


@pytest.fixture
def tracer():
    tracer = EventTracer()
    with tracer.span("engine.step", ts=1.0) as span:
        span.annotate(outcome="diverged")
    tracer.event("shard_divergence", ts=1.5, shard=2)
    return tracer


class TestTrip:
    def test_writes_header_then_records(self, tmp_path, tracer):
        recorder = FlightRecorder(str(tmp_path / "flights"))
        path = recorder.trip("shard-divergence", tracer)
        assert path is not None
        lines = [
            json.loads(line)
            for line in open(path, encoding="utf-8").read().splitlines()
        ]
        assert lines[0]["flight"] == "shard-divergence"
        assert lines[0]["buffered"] == 2
        assert {line["name"] for line in lines[1:]} == {
            "engine.step", "shard_divergence",
        }

    def test_reason_is_slugged_into_filename(self, tmp_path, tracer):
        recorder = FlightRecorder(str(tmp_path))
        path = recorder.trip("chaos failure: error budget!", tracer)
        assert path is not None
        name = path.rsplit("/", 1)[-1]
        assert name.startswith("flight-001-")
        assert name.endswith(".jsonl")
        assert " " not in name and ":" not in name and "!" not in name

    def test_limit_bounds_dump_count(self, tmp_path, tracer, monkeypatch):
        monkeypatch.setattr(flight_module, "DUMP_LIMIT", 2)
        recorder = FlightRecorder(str(tmp_path))
        assert recorder.trip("one", tracer) is not None
        assert recorder.trip("two", tracer) is not None
        assert recorder.trip("three", tracer) is None
        files = sorted(p.name for p in tmp_path.iterdir())
        assert len(files) == 2

    def test_sequential_trips_get_distinct_files(self, tmp_path, tracer):
        recorder = FlightRecorder(str(tmp_path))
        first = recorder.trip("same-reason", tracer)
        second = recorder.trip("same-reason", tracer)
        assert first != second


class TestAmbient:
    def test_default_is_unarmed(self):
        assert get_flight_recorder() is None

    def test_use_scopes_the_recorder(self, tmp_path):
        recorder = FlightRecorder(str(tmp_path))
        with use_flight_recorder(recorder):
            assert get_flight_recorder() is recorder
        assert get_flight_recorder() is None
