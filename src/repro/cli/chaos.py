"""``repro chaos``: the fault-injection drill — scheduled outages against
the live edge plus an engine-time blackout, gated on error rate,
re-steer time and recovery."""

from __future__ import annotations

import argparse

from ..anycast import STEERING_MODES
from ..faults.chaos import ChaosConfig, run_chaos
from . import flags


def register(commands) -> None:
    sub = commands.add_parser(
        "chaos", help="run the fault-injection drill against live + engine"
    )
    sub.add_argument("--seed", type=int, default=7,
                     help="seed for probabilistic fault decisions (default 7)")
    sub.add_argument("--concurrency", type=int, default=16,
                     help="concurrent load workers (default 16)")
    flags.add_fault_flag(sub, example="cdn-blackout@Limelight:3-9",
                         note="default: the standard drill")
    sub.add_argument("--skip-simulation", action="store_true",
                     help="run only the live phase")
    sub.add_argument("--steering", choices=STEERING_MODES, default="dns",
                     help="steering mode under test; 'anycast' adds the "
                          "route-flap drill (catchment shift, zero DNS "
                          "re-steers)")
    sub.add_argument("--workers", type=int, default=1,
                     help="worker processes for the simulation phase "
                          "(default 1 = serial)")
    flags.add_flight_flag(sub)
    sub.set_defaults(handler=run)


def run(args: argparse.Namespace) -> int:
    config = ChaosConfig(
        seed=args.seed,
        schedule=flags.fault_schedule(args) if args.fault else None,
        concurrency=args.concurrency,
        run_simulation=not args.skip_simulation,
        workers=args.workers,
        steering=args.steering,
    )
    with flags.flight_scope(args):
        report, _registry, _tracer = run_chaos(config)
    print(report.render())
    return 0 if report.passed() else 1
