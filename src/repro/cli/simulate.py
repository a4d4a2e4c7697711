"""``repro simulate`` (alias ``run``): the Sep-2017 scenario over a date
window, with per-day (``--verbose``: per-step) aggregates."""

from __future__ import annotations

import argparse

from ..net.geo import MappingRegion
from ..workload import TIMELINE
from . import flags


def register(commands) -> None:
    sub = commands.add_parser(
        "simulate", aliases=["run"],
        help="run the Sep-2017 scenario over a date window",
    )
    flags.add_window_flags(sub, probes=60, isp_probes=30, span=("9-17", "9-21"))
    flags.add_fault_flag(sub)
    flags.add_store_flags(sub)
    flags.add_checkpoint_flags(sub)
    flags.add_telemetry_flags(sub)
    sub.set_defaults(handler=run)


def run(args: argparse.Namespace) -> int:
    start = flags.parse_date(args.start)
    end = flags.parse_date(args.end)
    with flags.telemetry_scope(args) as (registry, tracer):
        engine = flags.engine_from_args(args, start, end)
        scenario = engine.scenario
        day_cursor = [None]

        def progress(report):
            day = TIMELINE.date_label(report.now)
            if day != day_cursor[0]:
                day_cursor[0] = day
                print(f"{day}: EU demand "
                      f"{report.demand_gbps[MappingRegion.EU]:.0f} Gbps "
                      f"({flags.operator_split(report)})")
            if args.verbose:
                flags.print_step(report)

        steps = engine.run(start, end, progress=progress, workers=args.workers,
                           **flags.checkpoint_kwargs(args))
        flags.print_if_drained(engine)
    print(f"\n{steps} steps; {flags.measurement_totals(scenario)}")
    flags.print_store_stats(args, scenario)
    flags.write_telemetry(args, registry, tracer)
    return 0
