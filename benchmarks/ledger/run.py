"""Perf ledger: one workload, one seed, one line of metrics.

    python3 benchmarks/ledger/run.py --workload replay_serial --seed 1 \
        --seconds 22 --trace 0

prints, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` — the six
end-to-end metrics with ``--trace 0``, every per-layer metric with
``--trace 1``.  Names and units come from ``BENCHMARK.json``.  A run
with any failed item exits non-zero.  ``--selfcheck N`` runs two
interleaved sets of N untraced runs per workload and compares them
against the bounds (see ``selfcheck.py``).
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import json
import os
import platform
import subprocess
import sys

from harness import NOMINAL_SECONDS, OUT_DIR, REPO_ROOT, Outcome, steal_ticks

# Traced runs also probe the other workloads at this scale, so that
# every per-layer row of every traced run is a measurement (each row's
# home workload is named in README.md; read it there).
PROBE_SCALE = 0.04
# Probe order: later entries win a row both produce, and the run's own
# workload always comes last.
PROBE_ORDER = ("replay_sharded", "replay_serial", "edge_http", "edge_dns")


def load_contract() -> dict:
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _family(workload: str):
    """The module that runs ``workload`` (imported on first use, so an
    untraced run's ``setup_s`` pays only for what it needs)."""
    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    if workload.startswith("replay_"):
        import replay
        return replay
    import edge
    return edge


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0) -> Outcome:
    """Run ``workload`` once; the traced form adds the probe passes."""
    work = scale * seconds / NOMINAL_SECONDS
    module = _family(workload)
    import_s = time.perf_counter() - _PROCESS_START
    if not trace:
        return module.run(workload, seed, work, False, import_s=import_s)
    steal0, total0 = steal_ticks()
    layers: dict = {}
    for other in PROBE_ORDER:
        if other != workload:
            probe = _family(other).run(
                other, seed, min(work, PROBE_SCALE), True, overhead_probe=False
            )
            layers.update(probe.layers)
    outcome = module.run(workload, seed, work, True)
    layers.update(outcome.layers)
    steal1, total1 = steal_ticks()
    layers["host.nproc"] = float(os.cpu_count() or 1)
    layers["host.steal_pct"] = (
        (steal1 - steal0) / (total1 - total0) * 100.0 if total1 > total0 else 0.0
    )
    outcome.layers = layers
    return outcome


def result_line(outcome: Outcome, contract: dict, trace: bool) -> dict:
    """The contract's result object for ``outcome``."""
    wanted = contract["per_layer" if trace else "end_to_end"]
    values = outcome.layers if trace else outcome.e2e
    missing = [row["name"] for row in wanted if row["name"] not in values]
    if missing:
        raise SystemExit(f"ledger: no value measured for {missing}")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            row["name"]: {"value": float(values[row["name"]]), "unit": row["unit"]}
            for row in wanted
        },
    }


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def append_history(outcome: Outcome, result: dict, args) -> None:
    """One envelope line per run, so the ledger has a trajectory."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    envelope = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "workload": outcome.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
        "items": outcome.attempted,
        "failures": outcome.failed,
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "raw": outcome.raw,
        "block_spread": outcome.block_spread,
        "host_speed": outcome.host_speed,
        "exact": outcome.exact,
        "inputs": outcome.inputs,
    }
    with open(OUT_DIR / "history.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(envelope, sort_keys=True) + "\n")


def main(argv=None) -> int:
    contract = load_contract()
    names = [row["name"] for row in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply the work size (smoke tests use 0.02)")
    parser.add_argument("--selfcheck", type=int, default=0, metavar="N",
                        help="two interleaved sets of N runs per workload")
    args = parser.parse_args(argv)
    if args.selfcheck:
        import selfcheck
        return selfcheck.main(contract, args.selfcheck, args.seconds, args.scale,
                              [args.workload] if args.workload else names)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0 or args.scale <= 0:
        parser.error("--seconds and --scale must be positive")

    outcome = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale
    )
    result = result_line(outcome, contract, bool(args.trace))
    append_history(outcome, result, args)
    for failure in outcome.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"{outcome.workload} seed={args.seed} items={outcome.attempted} "
          f"failed={outcome.failed} inputs={outcome.inputs} "
          f"exact={json.dumps(outcome.exact, sort_keys=True)}")
    print(json.dumps(result))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
