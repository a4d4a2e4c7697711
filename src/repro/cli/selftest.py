"""``repro selftest``: boot an edge, drive a full load run through it and
verify throughput, latency and cache health in one shot."""

from __future__ import annotations

import argparse

from ..serve import ClusterConfig, selftest
from . import flags


def register(commands) -> None:
    sub = commands.add_parser(
        "selftest", help="boot a loopback cluster, drive it, verify health"
    )
    flags.add_load_flags(sub, requests=5000, concurrency=64)
    sub.add_argument("--qps-floor", type=float, default=1000.0,
                     help="required sustained DNS qps (default 1000)")
    flags.add_trace_flags(sub)
    flags.add_resolver_flags(sub)
    sub.set_defaults(handler=run)


def run(args: argparse.Namespace) -> int:
    tracer = flags.client_tracer(args)
    try:
        result = selftest(
            requests=args.requests,
            concurrency=args.concurrency,
            cluster_config=ClusterConfig(**flags.resolver_config_kwargs(args)),
            arrival=args.arrival,
            duration=args.duration,
            tracer=tracer,
            trace_sample=args.trace_sample,
        )
    except ValueError as exc:
        # A bad flag value (a ShapeError included) is refused before
        # anything boots.
        raise SystemExit(f"selftest: {exc}") from exc
    print(result.render(qps_floor=args.qps_floor))
    flags.write_client_trace(args, tracer)
    return 0 if result.passed(qps_floor=args.qps_floor) else 1
