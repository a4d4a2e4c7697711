"""Flight recorder: persist the span ring buffer when something trips.

The tracer's ring buffer holds the last N records of a run — exactly
the evidence needed when a chaos drill fails its checks or a sharded
worker diverges from its replica.  The flight recorder's job is to get
that buffer onto disk *at the moment of the trip*, before the run
finishes (or crashes) and the buffer is gone.

Each trip writes one JSONL file into the recorder's directory: a
header line naming the trip reason plus the ring-buffer stats, then
every buffered record.  ``limit`` caps the number of dumps per
recorder so a flapping drill cannot fill the disk.

Like the registry and tracer, the recorder has a process-wide ambient
handle (:func:`get_flight_recorder` / :func:`set_flight_recorder` /
:func:`use_flight_recorder`) defaulting to ``None`` — trip sites call
:func:`get_flight_recorder` and do nothing when no recorder is armed.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from typing import Optional, Union

from .tracer import EventTracer, NullTracer

__all__ = [
    "FlightRecorder",
    "get_flight_recorder",
    "set_flight_recorder",
    "use_flight_recorder",
]


# Dumps one FlightRecorder writes at most.
DUMP_LIMIT = 32


class FlightRecorder:
    """Dumps a tracer's ring buffer to JSONL files on demand."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.limit = DUMP_LIMIT
        self.trips = 0

    def trip(
        self,
        reason: str,
        tracer: Union[EventTracer, NullTracer],
    ) -> Optional[str]:
        """Persist ``tracer``'s buffer; returns the file path written.

        Returns ``None`` when the per-recorder ``limit`` is exhausted.
        A sanitised ``reason`` lands in both the filename and the
        header line, so a directory listing already tells the story.
        """
        if self.trips >= self.limit:
            return None
        self.trips += 1
        slug = "".join(
            c if c.isalnum() or c in "-_" else "-" for c in reason
        ).strip("-") or "trip"
        os.makedirs(self.directory, exist_ok=True)
        path = os.path.join(
            self.directory, f"flight-{self.trips:03d}-{slug}.jsonl"
        )
        header = {"flight": reason, **tracer.stats()}
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for line in tracer.jsonl_lines():
                handle.write(line + "\n")
        return path


_default_recorder: Optional[FlightRecorder] = None


def get_flight_recorder() -> Optional[FlightRecorder]:
    """The process-wide flight recorder, if one is armed."""
    return _default_recorder


def set_flight_recorder(recorder: Optional[FlightRecorder]) -> None:
    """Arm (or with ``None``, disarm) the process-wide recorder."""
    global _default_recorder
    _default_recorder = recorder


@contextmanager
def use_flight_recorder(recorder: Optional[FlightRecorder]):
    """Temporarily arm ``recorder`` (restores the previous one on exit)."""
    previous = get_flight_recorder()
    set_flight_recorder(recorder)
    try:
        yield recorder
    finally:
        set_flight_recorder(previous)
