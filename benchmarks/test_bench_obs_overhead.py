"""Wire-level tracing overhead guard (BENCH_obs.json).

The tentpole contract for the observability plane: full tracing —
EDNS0 trace options on every DNS query, traceparent headers on every
fetch, span emission at every hop, 100% sampling — must stay within a
small constant factor of the untraced serving path.  This bench runs
the in-process selftest cluster twice:

* ``disabled`` — null tracer, ``trace_sample`` irrelevant (the
  shipped default for load runs);
* ``enabled``  — live ``EventTracer`` at ``trace_sample=1.0``, so
  every request pays the full encode/decode/span cost.

Results land in ``benchmarks/output/BENCH_obs.json`` with the latency
percentile panel from each run; the guard asserts the enabled/disabled
wall-clock ratio stays under a generous ceiling (tracing is bookkeeping
plus ~17 wire bytes, not a second serving path).
"""

import time

from repro.obs import NULL_TRACER, EventTracer
from repro.serve import selftest

from conftest import write_json

_REQUESTS = 1500
_CONCURRENCY = 32
_REPEATS = 3
_MAX_RATIO = 2.5


def _run_once(tracer, trace_sample: float):
    t0 = time.perf_counter()
    result = selftest(
        requests=_REQUESTS,
        concurrency=_CONCURRENCY,
        tracer=tracer,
        trace_sample=trace_sample,
    )
    elapsed = time.perf_counter() - t0
    report, registry = result.report, result.registry
    http = registry.get("serve_http_handle_seconds")
    panel = http.labels().percentile_summary() if http is not None else {}
    return report, elapsed, {k: v * 1000.0 for k, v in panel.items()}


def _best_of(build_tracer, trace_sample: float):
    best = None
    for _ in range(_REPEATS):
        report, elapsed, panel = _run_once(build_tracer(), trace_sample)
        assert report.errors == 0
        if best is None or elapsed < best[0]:
            best = (elapsed, report, panel)
    return best


def test_bench_obs_overhead():
    disabled = _best_of(lambda: NULL_TRACER, trace_sample=1.0)
    enabled = _best_of(lambda: EventTracer(capacity=65536), trace_sample=1.0)

    ratio = enabled[0] / disabled[0]
    payload = {
        "requests": _REQUESTS,
        "concurrency": _CONCURRENCY,
        "repeats": _REPEATS,
        "disabled": {
            "elapsed_seconds": round(disabled[0], 4),
            "rps": round(_REQUESTS / disabled[0], 1),
            "http_handle_ms": {
                k: round(v, 4) for k, v in disabled[2].items()
            },
        },
        "enabled": {
            "elapsed_seconds": round(enabled[0], 4),
            "rps": round(_REQUESTS / enabled[0], 1),
            "http_handle_ms": {
                k: round(v, 4) for k, v in enabled[2].items()
            },
        },
        "enabled_disabled_ratio": round(ratio, 3),
        "max_ratio": _MAX_RATIO,
    }
    write_json("BENCH_obs.json", payload)

    assert ratio <= _MAX_RATIO, payload
