"""Engine throughput: serial and sharded-parallel steps/sec.

Times the same bench-scale scenario two ways —

* **serial**: ``workers=1``;
* **parallel**: the sharded engine at ``workers=4``;

— and writes ``benchmarks/output/BENCH_engine.json``.  The committed
``benchmarks/BENCH_engine.baseline.json`` is the reference recording of
the same two numbers.  ``parallel_speedup`` (parallel / serial) only
means anything with real cores to shard over, so the ≥2× floor is
enforced when the host has 4+ CPUs and recorded (with the CPU count)
otherwise.
"""

import os
import time

import pytest

from repro.simulation import ScenarioConfig, Sep2017Scenario, SimulationEngine
from repro.workload import TIMELINE

from conftest import write_json

PARALLEL_FLOOR = 2.0
PARALLEL_FLOOR_MIN_CPUS = 4

START, END = TIMELINE.at(9, 17), TIMELINE.at(9, 21)
STEP_SECONDS = 1800.0


def build_engine():
    config = ScenarioConfig(
        global_probe_count=160,
        isp_probe_count=80,
        global_dns_interval=1800.0,
        isp_dns_interval=43200.0,
        traceroute_probe_count=16,
    )
    return SimulationEngine(Sep2017Scenario(config), step_seconds=STEP_SECONDS)


def timed_run(workers: int = 1):
    engine = build_engine()
    started = time.perf_counter()
    steps = engine.run(START, END, workers=workers)
    elapsed = time.perf_counter() - started
    return steps, steps / elapsed


@pytest.fixture(scope="module")
def throughput():
    steps, serial = timed_run(workers=1)
    _, parallel = timed_run(workers=4)
    cpus = os.cpu_count() or 1
    results = {
        "scenario": "bench-scale Sep 17-21, 1800 s steps",
        "steps": steps,
        "cpus": cpus,
        "serial_steps_per_sec": round(serial, 2),
        "parallel_steps_per_sec": round(parallel, 2),
        "parallel_speedup": round(parallel / serial, 3),
    }
    write_json("BENCH_engine.json", results)
    return results


def test_engine_throughput_recorded(throughput):
    assert throughput["steps"] == 192
    assert throughput["serial_steps_per_sec"] > 0
    assert throughput["parallel_steps_per_sec"] > 0


def test_parallel_speedup_floor(throughput):
    if throughput["cpus"] < PARALLEL_FLOOR_MIN_CPUS:
        pytest.skip(
            f"host has {throughput['cpus']} CPU(s); the {PARALLEL_FLOOR}x "
            f"sharding floor needs {PARALLEL_FLOOR_MIN_CPUS}+ "
            f"(speedup recorded in BENCH_engine.json regardless)"
        )
    assert throughput["parallel_speedup"] >= PARALLEL_FLOOR
