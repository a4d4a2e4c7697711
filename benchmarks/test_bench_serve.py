"""Serve-fleet throughput: single-loop vs multi-process edge qps.

Runs the scaled selftest — a 4-worker ``SO_REUSEPORT`` fleet driven
by a closed-loop loadgen fleet, plus the single-loop reference — and
writes ``benchmarks/output/BENCH_serve.json`` with sustained qps and
the p50/p99/p999 latency panels for both paths.

Two guards run against ``benchmarks/BENCH_serve.baseline.json``:

* ``single_loop_dns_qps`` is machine-dependent, so only the
  *fleet/single* qps ratio is held within ±30% of the baseline ratio;
* the ≥5× fleet speedup floor from the issue's acceptance criteria is
  enforced when the host has 4+ CPUs and recorded (with the CPU
  count) otherwise — one core cannot demonstrate a process fleet.

Refresh the baseline by copying the output file over the committed
one after an intentional perf change and reviewing the diff.
"""

import json
import pathlib

import pytest

from repro.serve import fleet_supported, selftest

from conftest import write_json

BASELINE_PATH = pathlib.Path(__file__).parent / "BENCH_serve.baseline.json"
RATIO_TOLERANCE = 0.30
SPEEDUP_FLOOR = 5.0
SPEEDUP_FLOOR_MIN_CPUS = 4

pytestmark = pytest.mark.skipif(
    not fleet_supported(), reason="platform lacks SO_REUSEPORT fork fleets"
)


def _panel(report) -> dict:
    return {
        "dns_qps": round(report.dns_qps, 1),
        "http_rps": round(report.http_rps, 1),
        "dns_p50_ms": round(report.dns_percentiles_ms.get("p50", 0.0), 3),
        "dns_p99_ms": round(report.dns_percentiles_ms.get("p99", 0.0), 3),
        "dns_p999_ms": round(report.dns_percentiles_ms.get("p999", 0.0), 3),
        "http_p50_ms": round(report.http_percentiles_ms.get("p50", 0.0), 3),
        "http_p99_ms": round(report.http_percentiles_ms.get("p99", 0.0), 3),
        "http_p999_ms": round(report.http_percentiles_ms.get("p999", 0.0), 3),
    }


@pytest.fixture(scope="module")
def serve_bench():
    result = selftest(workers=4, requests=2000, concurrency=32)
    payload = {
        "scenario": "4-worker reuseport fleet, closed-loop 2000 requests",
        "workers": result.workers,
        "loadgen_processes": result.processes,
        "cpus": result.cpus,
        "single_loop": _panel(result.reference),
        "fleet": _panel(result.report),
        "fleet_speedup": round(result.speedup, 3),
        "equivalent": not result.equivalence_failures,
        "requests_ok": result.report.ok,
        "requests_errors": result.report.errors,
    }
    write_json("BENCH_serve.json", payload)
    return result, payload


def test_serve_bench_recorded(serve_bench):
    result, payload = serve_bench
    assert payload["requests_errors"] == 0
    assert payload["fleet"]["dns_qps"] > 0
    assert payload["fleet"]["dns_p50_ms"] > 0
    assert payload["fleet"]["dns_p999_ms"] >= payload["fleet"]["dns_p99_ms"]
    assert not result.worker_errors


def test_fleet_stays_byte_equivalent(serve_bench):
    result, payload = serve_bench
    assert payload["equivalent"], result.equivalence_failures


def test_fleet_ratio_within_baseline(serve_bench):
    _result, payload = serve_bench
    baseline = json.loads(BASELINE_PATH.read_text())
    if payload["cpus"] != baseline["cpus"]:
        pytest.skip(
            f"baseline recorded on {baseline['cpus']} CPU(s), host has "
            f"{payload['cpus']}: the fleet/single ratio is not comparable"
        )
    expected = baseline["fleet_speedup"]
    ratio = payload["fleet_speedup"] / expected
    assert (1 - RATIO_TOLERANCE) <= ratio <= (1 + RATIO_TOLERANCE), (
        f"fleet speedup {payload['fleet_speedup']} drifted more than "
        f"±{RATIO_TOLERANCE:.0%} from baseline {expected}; if intended, "
        f"refresh benchmarks/BENCH_serve.baseline.json from "
        f"benchmarks/output/BENCH_serve.json"
    )


def test_fleet_speedup_floor(serve_bench):
    _result, payload = serve_bench
    if payload["cpus"] < SPEEDUP_FLOOR_MIN_CPUS:
        pytest.skip(
            f"host has {payload['cpus']} CPU(s); the {SPEEDUP_FLOOR}x fleet "
            f"floor needs {SPEEDUP_FLOOR_MIN_CPUS}+ "
            f"(speedup recorded in BENCH_serve.json regardless)"
        )
    assert payload["fleet_speedup"] >= SPEEDUP_FLOOR
