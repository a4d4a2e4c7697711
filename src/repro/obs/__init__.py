"""Telemetry substrate: metrics registry, event tracing, exporters.

The reproduction's subject is *observation*, and this subpackage makes
the reproduction itself observable: every hot path (DNS resolution,
engine stepping, the cache hierarchy, ISP traffic, Atlas campaigns)
routes its instrumentation through a registry/tracer handle obtained
here.

* :mod:`repro.obs.registry` — labelled counters, gauges and
  fixed-bucket histograms; a process-wide default handle; a null
  registry whose instruments are no-ops (the default, so an
  un-configured run pays nothing);
* :mod:`repro.obs.tracer` — timestamped point events and nested spans
  in a bounded ring buffer, optionally streamed as JSONL; span
  parentage is :mod:`contextvars`-based, so concurrent asyncio tasks
  nest correctly;
* :mod:`repro.obs.trace_context` — the wire-level trace context
  (EDNS0 option / ``traceparent`` header) that joins client, DNS and
  HTTP spans into one causal chain, with deterministic per-trace-id
  sampling;
* :mod:`repro.obs.flight` — the flight recorder that persists the span
  ring buffer to JSONL when a chaos drill or shard divergence trips;
* :mod:`repro.obs.export` — Prometheus text exposition (render and
  parse), JSONL trace dumps, human-readable summary tables.

Typical use (the CLI's ``--metrics-out`` / ``--trace-out`` path)::

    from repro.obs import MetricsRegistry, EventTracer, use_registry, use_tracer

    metrics, tracer = MetricsRegistry(), EventTracer()
    with use_registry(metrics), use_tracer(tracer):
        scenario = Sep2017Scenario()           # components capture handles
        SimulationEngine(scenario).run(start, end)
    print(summary_table(metrics))

Install the handles *before* constructing the scenario: instrumented
components capture their instruments at construction time.
"""

from .export import (
    ExpositionError,
    ParsedFamily,
    parse_exposition,
    parsed_histogram,
    render_exposition,
    render_trace_jsonl,
    summary_table,
    write_metrics,
    write_trace,
)
from .flight import (
    FlightRecorder,
    get_flight_recorder,
    set_flight_recorder,
    use_flight_recorder,
)
from .registry import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    HistogramChild,
    MetricError,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    merge_registry_snapshots,
    set_registry,
    snapshot_delta,
    use_registry,
)
from .trace_context import (
    TRACE_OPTION_CODE,
    TraceChain,
    TraceContext,
    assemble_chains,
    current_context,
    new_trace_id,
    sample_trace,
    use_context,
)
from .tracer import (
    NULL_TRACER,
    EventTracer,
    NullTracer,
    TraceRecord,
    get_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramChild",
    "MetricError",
    "DEFAULT_BUCKETS",
    "get_registry",
    "merge_registry_snapshots",
    "set_registry",
    "snapshot_delta",
    "use_registry",
    "EventTracer",
    "NullTracer",
    "NULL_TRACER",
    "TraceRecord",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "TRACE_OPTION_CODE",
    "TraceContext",
    "TraceChain",
    "assemble_chains",
    "current_context",
    "use_context",
    "new_trace_id",
    "sample_trace",
    "FlightRecorder",
    "get_flight_recorder",
    "set_flight_recorder",
    "use_flight_recorder",
    "render_exposition",
    "parse_exposition",
    "parsed_histogram",
    "ParsedFamily",
    "ExpositionError",
    "summary_table",
    "render_trace_jsonl",
    "write_metrics",
    "write_trace",
]
