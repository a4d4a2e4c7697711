"""Smoke tests of the perf ledger (not collected by the tier-1 suite).

    PYTHONPATH=src python -m pytest benchmarks/ledger/tests -q

Every workload runs at ``scale=0.02`` (a few seconds each), so these
check the harness, not the numbers: that names match ``BENCHMARK.json``,
that serial and sharded replays agree, that exact counts repeat and
seeds change the inputs, and that a corrupted response fails the run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(LEDGER))

import run as ledger  # noqa: E402

SCALE = 0.02
CONTRACT = ledger.load_contract()
WORKLOADS = [row["name"] for row in CONTRACT["workloads"]]


@pytest.fixture(scope="module")
def untraced():
    """One untraced run per workload at seed 1, shared by the tests."""
    return {
        name: ledger.run_workload(name, 1, CONTRACT["run_seconds"], False, SCALE)
        for name in WORKLOADS
    }


def test_contract_names_the_harness():
    assert CONTRACT["paths"] == ["benchmarks/ledger"]
    assert CONTRACT["command"][-1] == "benchmarks/ledger/run.py"
    assert WORKLOADS == ["replay_serial", "replay_sharded", "edge_dns", "edge_http"]
    assert "setup_s" in {row["name"] for row in CONTRACT["end_to_end"]}
    assert all(row["bound"] <= 0.25 for row in CONTRACT["end_to_end"])


@pytest.mark.parametrize("name", WORKLOADS)
def test_end_to_end_metrics_match_contract(untraced, name):
    outcome = untraced[name]
    assert outcome.failed == 0, outcome.failures
    result = ledger.result_line(outcome, CONTRACT, trace=False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    wanted = {row["name"]: row["unit"] for row in CONTRACT["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_every_layer_metric():
    outcome = ledger.run_workload("edge_http", 1, CONTRACT["run_seconds"], True, SCALE)
    result = ledger.result_line(outcome, CONTRACT, trace=True)
    wanted = {row["name"]: row["unit"] for row in CONTRACT["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert outcome.layers["bench.trace_coverage"] >= 0.90
    spans = [json.loads(line) for line in
             (LEDGER / "out" / "trace-edge_http.jsonl").read_text().splitlines()]
    assert {"item", "fetch"} <= {span["span"] for span in spans}
    assert all(span["parent"] == "item" for span in spans if span["span"] == "fetch")


def test_serial_and_sharded_reports_agree(untraced):
    serial, sharded = untraced["replay_serial"], untraced["replay_sharded"]
    assert serial.exact["report_digest"]
    assert serial.exact == sharded.exact


@pytest.mark.parametrize("name", ["replay_serial", "edge_dns", "edge_http"])
def test_exact_counts_repeat_and_seeds_differ(untraced, name):
    again = ledger.run_workload(name, 1, CONTRACT["run_seconds"], False, SCALE)
    assert again.exact == untraced[name].exact
    assert again.inputs == untraced[name].inputs
    other = ledger.run_workload(name, 2, CONTRACT["run_seconds"], False, SCALE)
    assert other.failed == 0, other.failures
    assert other.inputs != untraced[name].inputs
    assert other.attempted == untraced[name].attempted  # same work size


def test_corrupted_response_fails_the_run(monkeypatch, capsys):
    from repro.serve.loadgen import PooledHttpClient

    genuine = PooledHttpClient.get
    calls = {"n": 0}

    async def short_body(self, *args, **kwargs):
        status, headers, length = await genuine(self, *args, **kwargs)
        calls["n"] += 1
        if calls["n"] == 50:
            length -= 1          # one response arrives a byte short
        return status, headers, length

    monkeypatch.setattr(PooledHttpClient, "get", short_body)
    code = ledger.main(["--workload", "edge_http", "--seed", "1",
                        "--scale", str(SCALE), "--trace", "0"])
    assert code != 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1
