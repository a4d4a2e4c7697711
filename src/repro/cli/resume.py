"""``repro resume``: continue a checkpointed run (``--checkpoint-every``
on simulate/report) bit-identically from its newest ``RCKPT`` snapshot."""

from __future__ import annotations

import argparse
import os

from ..simulation.checkpoint import CheckpointError, load_checkpoint
from ..simulation.engine import check_workers
from ..workload import TIMELINE
from . import flags


def register(commands) -> None:
    sub = commands.add_parser(
        "resume",
        help="continue a checkpointed run bit-identically to completion",
    )
    sub.add_argument("--from", dest="from_path", required=True,
                     metavar="PATH",
                     help="checkpoint file, or a checkpoint directory "
                          "(the newest valid ckpt-*.rckpt is used)")
    sub.add_argument("--end", default=None, metavar="M-D",
                     help="extend/trim the run end (default: the "
                          "original run's end)")
    sub.add_argument("--workers", type=int, default=1,
                     help="worker processes for the resumed run "
                          "(default 1 = serial)")
    flags.add_checkpoint_flags(sub)
    flags.add_telemetry_flags(sub)
    sub.set_defaults(handler=run)


def run(args: argparse.Namespace) -> int:
    try:
        check_workers(args.workers)  # before the checkpoint is read
    except ValueError as exc:
        raise SystemExit(f"resume: {exc}") from None
    try:
        checkpoint = load_checkpoint(args.from_path)
    except CheckpointError as exc:
        raise SystemExit(f"resume: {exc}") from None
    end = flags.parse_date(args.end) if args.end else None
    # Resuming from a directory keeps checkpointing into it unless told
    # otherwise.
    checkpoint_kwargs = flags.checkpoint_kwargs(
        args,
        fallback_dir=args.from_path if os.path.isdir(args.from_path) else None,
    )
    with flags.telemetry_scope(args) as (registry, tracer):
        engine = checkpoint.spec.build()
        try:
            steps = engine.run(
                end=end,
                progress=flags.print_step if args.verbose else None,
                workers=args.workers,
                resume_from=checkpoint,
                **checkpoint_kwargs,
            )
        except CheckpointError as exc:
            raise SystemExit(f"resume: {exc}") from None
    print(f"resumed from step {checkpoint.steps} "
          f"(t={TIMELINE.date_label(checkpoint.next_tick)}): "
          f"{steps} further steps; "
          f"{flags.measurement_totals(engine.scenario)}")
    flags.print_if_drained(engine)
    flags.write_telemetry(args, registry, tracer)
    return 0
