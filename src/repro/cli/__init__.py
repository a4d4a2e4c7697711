"""Command-line interface: ``python -m repro <command>``.

One module per command, each declaring its parser (``register``) out of
the shared flag groups in :mod:`repro.cli.flags` and its one body
(``run``):

* ``simulate`` — run the Sep-2017 scenario over a date window and print
  per-step aggregates (demand, offload split, measurements, flows);
* ``report`` — run the event window and emit the full reproduction
  report (Figures 2-8 in one document);
* ``resume`` — continue a checkpointed run (``--checkpoint-every`` on
  simulate/report) bit-identically from its newest ``RCKPT`` snapshot;
* ``survey`` — the paper's generic CDN-survey methodology: mapping
  graph, site discovery and header inference, no time simulation;
* ``serve`` — boot the live DNS + HTTP serving layer on loopback and
  keep it up for external clients (``dig``, ``curl``, the loadgen);
* ``loadgen`` — drive the load generator against an already-running
  serve endpoint pair;
* ``selftest`` — boot an edge, drive a full load run through it and
  verify throughput, latency and cache health in one shot;
* ``chaos`` — the fault-injection drill: scheduled outages against the
  live edge plus an engine-time blackout, gated on error rate,
  re-steer time and recovery.

``--workers`` is passed through as a number to the replay commands:
whether it means the serial engine or the sharded one is decided in
``engine.run``.  Every serving command runs one process.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from ..simulation.concurrency import ShardWorkerLost
from . import chaos, loadgen, report, resume, selftest, serve, simulate, survey

__all__ = ["main", "build_parser"]

_COMMANDS = (simulate, report, resume, survey, serve, loadgen, selftest, chaos)


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Dissecting Apple's Meta-CDN during "
                    "an iOS Update' (IMC 2018)",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for command in _COMMANDS:
        command.register(commands)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ShardWorkerLost as lost:
        # Every command that runs the sharded engine ends here: the run
        # stopped at its last merged tick and the message names the way
        # back (`repro resume`, or a re-run if nothing was checkpointed).
        print(f"repro {args.command}: {lost}", file=sys.stderr)
        return 3
