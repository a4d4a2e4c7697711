"""``repro profile``: run the engine under the phase profiler and print
the per-worker per-phase time breakdown."""

from __future__ import annotations

import argparse

from ..obs import MetricsRegistry, use_registry
from . import flags


def register(commands) -> None:
    sub = commands.add_parser(
        "profile", help="run the engine under the phase profiler"
    )
    flags.add_window_flags(sub, probes=24, isp_probes=12, workers=4,
                           span=("9-18", "9-19"))
    flags.add_flight_flag(sub)
    sub.set_defaults(handler=run)


def render_profile(registry) -> str:
    """The `engine_phase_seconds` family as a per-worker breakdown."""
    family = registry.get("engine_phase_seconds")
    if family is None:
        return "(no phase timings recorded)"
    rows = []
    worker_totals: dict[str, float] = {}
    for (phase, worker), child in family.children():
        rows.append((worker, phase, child))
        worker_totals[worker] = worker_totals.get(worker, 0.0) + child.sum
    if not rows:
        return "(no phase timings recorded)"
    lines = [
        f"{'worker':<8} {'phase':<12} {'ticks':>7} {'total s':>9} "
        f"{'mean ms':>9} {'p95 ms':>9} {'share':>7}",
    ]
    lines.append("-" * len(lines[0]))
    for worker, phase, child in sorted(rows, key=lambda r: (r[0], r[1])):
        total = worker_totals[worker]
        share = child.sum / total if total > 0 else 0.0
        mean_ms = (child.sum / child.count * 1000.0) if child.count else 0.0
        lines.append(
            f"{worker:<8} {phase:<12} {child.count:>7} {child.sum:>9.3f} "
            f"{mean_ms:>9.3f} {child.quantile(0.95) * 1000.0:>9.3f} "
            f"{share:>7.1%}"
        )
    lines.append("")
    for worker in sorted(worker_totals):
        lines.append(f"{worker}: {worker_totals[worker]:.3f} s total phase time")
    return "\n".join(lines)


def run(args: argparse.Namespace) -> int:
    start = flags.parse_date(args.start)
    end = flags.parse_date(args.end)
    registry = MetricsRegistry()
    with use_registry(registry), flags.flight_scope(args):
        engine = flags.engine_from_args(args, start, end)
        steps = engine.run(start, end, workers=args.workers)
    print(f"{steps} steps over workers={args.workers}")
    print()
    print(render_profile(registry))
    return 0
