"""``--selfcheck N``: does the ledger agree with itself?

Runs two interleaved sets (A, B) of N untraced runs per workload of the
*same* tree — A and B alternate run by run, seeds 1..N in both — and
prints, per workload and end-to-end metric, each set's median and
quartiles, its spread (inter-quartile range over the median, the
driver's noise measure) and the between-set difference of the medians
against the metric's bound from ``BENCHMARK.json``.

A difference above half a bound, or a spread above the bound, is
flagged; the remedy is a longer run or more blocks, not a wider bound
(and never a bound past 25 %).  Exit status is non-zero when any
between-set difference or spread exceeds its bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

from harness import LEDGER_DIR, spread


def _one_run(workload: str, seed: int, seconds: float, scale: float) -> dict:
    completed = subprocess.run(
        [sys.executable, str(LEDGER_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--scale", str(scale),
         "--trace", "0"],
        capture_output=True, text=True, timeout=900,
    )
    if completed.returncode != 0:
        raise SystemExit(
            f"selfcheck: {workload} seed {seed} exited "
            f"{completed.returncode}:\n{completed.stderr}"
        )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    return {name: row["value"] for name, row in result["metrics"].items()}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(contract: dict, runs: int, seconds: float, scale: float,
         workloads: list[str]) -> int:
    bounds = {row["name"]: row["bound"] for row in contract["end_to_end"]}
    worst_ok = True
    for workload in workloads:
        sets: dict[str, list[dict]] = {"A": [], "B": []}
        for seed in range(1, runs + 1):
            for label in ("A", "B") if seed % 2 else ("B", "A"):
                sets[label].append(_one_run(workload, seed, seconds, scale))
                print(f"  ran {workload} set {label} seed {seed}",
                      file=sys.stderr, flush=True)
        print(f"\n{workload}  (two interleaved sets of {runs} runs, "
              f"seeds 1..{runs})")
        print(f"  {'metric':<18} {'set':>3} {'q1':>10} {'median':>10} "
              f"{'q3':>10} {'spread':>8} {'A-B diff':>9} {'bound':>6}  verdict")
        for name, bound in bounds.items():
            medians = {}
            spreads = {}
            for label in ("A", "B"):
                values = [run[name] for run in sets[label]]
                q1, q2, q3 = _quartiles(values)
                medians[label] = statistics.median(values)
                spreads[label] = spread(values)
                print(f"  {name:<18} {label:>3} {q1:10.4f} {q2:10.4f} "
                      f"{q3:10.4f} {spreads[label] * 100:7.2f}%", end="")
                if label == "A":
                    print()
            difference = abs(medians["B"] - medians["A"]) / medians["A"]
            noisiest = max(spreads.values())
            if difference > bound or (name != "setup_s" and noisiest > bound):
                verdict = "FAIL"
                worst_ok = False
            elif difference > bound / 2 or noisiest > bound / 3:
                verdict = "noisy"
            else:
                verdict = "ok"
            print(f" {difference * 100:8.2f}% {bound * 100:5.0f}%  {verdict}")
    return 0 if worst_ok else 1
