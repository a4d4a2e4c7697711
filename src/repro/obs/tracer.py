"""Structured event tracing: timestamped point events and nested spans.

The tracer is the narrative complement to the metrics registry: where
counters say *how much*, the trace says *when and in what order* — the
controller flipped to offload at 17:30, transit-d-1 saturated two steps
later, the ``a1015`` rollout landed at 23:00.  Records carry the
*simulation* clock in ``ts`` (the quantity every analysis reasons in);
span durations are wall-clock seconds, measured with
``time.perf_counter``.

Span parentage is tracked with :mod:`contextvars`, not a shared stack:
each asyncio task sees its own "currently open span", so concurrent
loadgen workers and server handlers interleaving on one event loop
cannot mis-parent each other's spans.  When a wire-level
:class:`~repro.obs.trace_context.TraceContext` is ambient (see
:func:`~repro.obs.trace_context.use_context`), new spans inherit its
trace id and — absent a local parent — attach under its remote span id,
which is how client and server spans join into one causal chain.

Records land in a bounded in-memory ring buffer (old records drop
silently once ``capacity`` is exceeded; ``dropped`` counts them) and,
optionally, stream to a file-like object as JSONL the moment they are
emitted.  Ambient contexts marked unsampled suppress recording
entirely (``sampled_out`` counts the suppressions).  :class:`NullTracer`
is the zero-overhead opt-out.
"""

from __future__ import annotations

import json
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import IO, Iterator, Optional, Union

__all__ = [
    "TraceRecord",
    "EventTracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "use_tracer",
]

# The ambient wire-level trace context of the current asyncio task.
# Owned here (rather than in trace_context) so the hot recording path
# reads it without a circular import; trace_context re-exports the
# public accessors.
_ambient_context: "ContextVar[Optional[object]]" = ContextVar(
    "repro_trace_context", default=None
)


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry: a point event or a completed span."""

    name: str
    ts: float                       # simulation seconds
    kind: str                       # "event" | "span"
    fields: dict = field(default_factory=dict)
    span_id: Optional[int] = None   # set for spans
    parent_id: Optional[int] = None  # enclosing span, if any
    duration: Optional[float] = None  # wall seconds; spans only
    trace_id: Optional[int] = None  # wire-level chain id, if ambient

    def to_json(self) -> dict:
        """The JSONL representation (stable key order)."""
        out = {"ts": self.ts, "kind": self.kind, "name": self.name}
        if self.span_id is not None:
            out["span_id"] = self.span_id
        if self.parent_id is not None:
            out["parent_id"] = self.parent_id
        if self.duration is not None:
            out["duration_s"] = round(self.duration, 9)
        if self.trace_id is not None:
            out["trace_id"] = "{:016x}".format(self.trace_id)
        if self.fields:
            out["fields"] = self.fields
        return out

    def to_jsonl(self) -> str:
        """One JSONL line (no trailing newline)."""
        return json.dumps(self.to_json(), sort_keys=False, default=str)


class _Span:
    """Context manager recording a span on exit."""

    __slots__ = (
        "_tracer", "name", "ts", "fields",
        "span_id", "parent_id", "trace_id", "_t0", "_token",
    )

    def __init__(
        self,
        tracer: "EventTracer",
        name: str,
        ts: float,
        fields: dict,
        trace_id: Optional[int],
    ):
        self._tracer = tracer
        self.name = name
        self.ts = ts
        self.fields = fields
        self.trace_id = trace_id
        self.span_id = 0
        self.parent_id: Optional[int] = None
        self._t0 = 0.0
        self._token = None

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        self.parent_id = tracer._parent_id()
        self.span_id = tracer._new_span_id()
        # Task-local: entering a span only re-parents spans opened in
        # the *same* task (or tasks spawned while it is open).
        self._token = tracer._current.set(self.span_id)
        self._t0 = time.perf_counter()
        return self

    def annotate(self, **fields) -> None:
        """Attach extra fields before the span closes."""
        self.fields.update(fields)

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = time.perf_counter() - self._t0
        if self._token is not None:
            self._tracer._current.reset(self._token)
            self._token = None
        self._tracer._close_span(self, elapsed, failed=exc_type is not None)


# Records an EventTracer's ring buffer holds.
RING_CAPACITY = 65536


class EventTracer:
    """Collects :class:`TraceRecord` entries in a ring buffer.

    :data:`RING_CAPACITY` bounds memory; ``stream`` (optional, file-like) gets
    every record as a JSONL line the moment it is recorded, so long
    runs can persist more than the buffer holds.
    """

    enabled = True

    def __init__(self, stream: Optional[IO[str]] = None):
        self.capacity = RING_CAPACITY
        self._buffer: "deque[TraceRecord]" = deque(maxlen=RING_CAPACITY)
        self._stream = stream
        # The currently open span of *this task*; each tracer gets its
        # own variable so independent tracers never share nesting state.
        self._current: "ContextVar[Optional[int]]" = ContextVar(
            "repro_trace_span", default=None
        )
        self._next_id = 1
        self.emitted = 0
        self.sampled_out = 0

    # ----- recording ----------------------------------------------------

    def event(self, name: str, ts: float, **fields) -> Optional[TraceRecord]:
        """Record a point event at simulation time ``ts``.

        Returns the record, or ``None`` when the ambient trace context
        is marked unsampled (the suppression is counted).
        """
        context = _ambient_context.get()
        if context is not None and not context.sampled:
            self.sampled_out += 1
            return None
        record = TraceRecord(
            name=name,
            ts=float(ts),
            kind="event",
            fields=fields,
            parent_id=self._parent_id(),
            trace_id=context.trace_id if context is not None else None,
        )
        self._emit(record)
        return record

    def span(self, name: str, ts: float, **fields):
        """A context manager timing a nested span starting at ``ts``.

        Unsampled ambient contexts get the no-op span (counted in
        ``sampled_out``), so high-qps call sites need no extra gating.
        """
        context = _ambient_context.get()
        if context is not None and not context.sampled:
            self.sampled_out += 1
            return _NULL_SPAN
        trace_id = context.trace_id if context is not None else None
        return _Span(self, name, float(ts), fields, trace_id)

    def current_span_id(self) -> Optional[int]:
        """The id of this task's innermost open span, if any."""
        return self._current.get()

    def _parent_id(self) -> Optional[int]:
        """Local open span first, else the ambient remote parent."""
        local = self._current.get()
        if local is not None:
            return local
        context = _ambient_context.get()
        if context is not None:
            return context.span_id
        return None

    def _new_span_id(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def _close_span(self, span: _Span, elapsed: float, failed: bool) -> None:
        fields = dict(span.fields)
        if failed:
            fields["failed"] = True
        self._emit(
            TraceRecord(
                name=span.name,
                ts=span.ts,
                kind="span",
                fields=fields,
                span_id=span.span_id,
                parent_id=span.parent_id,
                duration=elapsed,
                trace_id=span.trace_id,
            )
        )

    def _emit(self, record: TraceRecord) -> None:
        self._buffer.append(record)
        self.emitted += 1
        if self._stream is not None:
            self._stream.write(record.to_jsonl() + "\n")

    # ----- reading ------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Records pushed out of the ring buffer."""
        return self.emitted - len(self._buffer)

    def stats(self) -> dict:
        """Ring-buffer accounting: emitted / buffered / dropped / sampled_out."""
        return {
            "emitted": self.emitted,
            "buffered": len(self._buffer),
            "dropped": self.dropped,
            "sampled_out": self.sampled_out,
        }

    def records(self) -> tuple[TraceRecord, ...]:
        """Everything still in the buffer, oldest first."""
        return tuple(self._buffer)

    def find(self, name: str) -> list[TraceRecord]:
        """All buffered records with ``name``."""
        return [r for r in self._buffer if r.name == name]

    def first(self, name: str) -> Optional[TraceRecord]:
        """The oldest buffered record with ``name``, if any."""
        for record in self._buffer:
            if record.name == name:
                return record
        return None

    def jsonl_lines(self) -> Iterator[str]:
        """Every buffered record as a JSONL line."""
        for record in self._buffer:
            yield record.to_jsonl()

    def __len__(self) -> int:
        return len(self._buffer)


class _NullSpan:
    """Reusable no-op context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass

    def annotate(self, **fields) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The opt-out tracer: records nothing, costs a method call."""

    enabled = False
    emitted = 0
    dropped = 0
    sampled_out = 0

    def event(self, name: str, ts: float, **fields) -> None:
        return None

    def span(self, name: str, ts: float, **fields) -> _NullSpan:
        return _NULL_SPAN

    def current_span_id(self) -> None:
        return None

    def stats(self) -> dict:
        return {"emitted": 0, "buffered": 0, "dropped": 0, "sampled_out": 0}

    def records(self) -> tuple:
        return ()

    def find(self, name: str) -> list:
        return []

    def first(self, name: str) -> None:
        return None

    def jsonl_lines(self) -> Iterator[str]:
        return iter(())

    def __len__(self) -> int:
        return 0


NULL_TRACER = NullTracer()

_default_tracer: Union[EventTracer, NullTracer] = NULL_TRACER


def get_tracer() -> Union[EventTracer, NullTracer]:
    """The process-wide default tracer (the null tracer unless set)."""
    return _default_tracer


def set_tracer(tracer: Union[EventTracer, NullTracer]) -> None:
    """Install ``tracer`` as the process-wide default."""
    global _default_tracer
    _default_tracer = tracer


@contextmanager
def use_tracer(tracer: Union[EventTracer, NullTracer]):
    """Temporarily install ``tracer`` as the default (restores on exit)."""
    previous = get_tracer()
    set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
