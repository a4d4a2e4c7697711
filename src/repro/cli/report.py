"""``repro report``: replay the event window (Sep 15-23) and print the
full reproduction report, Figures 2-8 in one document."""

from __future__ import annotations

import argparse

from ..analysis.report import generate_report
from ..workload import TIMELINE
from . import flags


def register(commands) -> None:
    sub = commands.add_parser(
        "report", help="run the event window and print the full report"
    )
    flags.add_window_flags(sub, probes=80, isp_probes=40, span=None)
    flags.add_store_flags(sub)
    flags.add_checkpoint_flags(sub)
    flags.add_telemetry_flags(sub)
    sub.set_defaults(handler=run)


def run(args: argparse.Namespace) -> int:
    start, end = TIMELINE.at(9, 15), TIMELINE.at(9, 23)
    with flags.telemetry_scope(args) as (registry, tracer):
        engine = flags.engine_from_args(args, start, end)
        engine.run(
            start, end,
            progress=flags.print_step if args.verbose else None,
            workers=args.workers,
            **flags.checkpoint_kwargs(args),
        )
    print(generate_report(engine.scenario))
    flags.print_store_stats(args, engine.scenario, lead="\n")
    flags.write_telemetry(args, registry, tracer)
    return 0
