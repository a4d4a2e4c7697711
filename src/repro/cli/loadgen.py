"""``repro loadgen``: drive the load generator against an already
running ``repro serve`` endpoint pair."""

from __future__ import annotations

import argparse

from ..serve import LoadConfig, drive_load
from . import flags


def register(commands) -> None:
    sub = commands.add_parser(
        "loadgen", help="drive the load generator against a running serve pair"
    )
    sub.add_argument("--dns", required=True, metavar="HOST:PORT",
                     help="DNS endpoint of a running `repro serve`")
    sub.add_argument("--http", required=True, metavar="HOST:PORT",
                     help="HTTP endpoint of a running `repro serve`")
    flags.add_load_flags(sub, requests=1000, concurrency=32)
    flags.add_trace_flags(sub)
    sub.add_argument("--resolver", metavar="HOST:PORT", default=None,
                     help="public-resolver front endpoint of a running "
                          "`repro serve` with a public population")
    sub.add_argument("--public-resolver-share", type=float, default=0.0,
                     metavar="FRACTION",
                     help="fraction of clients resolving through "
                          "--resolver instead of directly (default 0.0)")
    sub.set_defaults(handler=run)


def run(args: argparse.Namespace) -> int:
    resolver_endpoint = None
    if args.resolver is not None:
        resolver_endpoint = flags.parse_endpoint(args.resolver)
    elif args.public_resolver_share > 0.0:
        raise SystemExit("--public-resolver-share requires --resolver")
    tracer = flags.client_tracer(args)
    try:
        config = LoadConfig(
            requests=args.requests,
            concurrency=args.concurrency,
            trace_sample=args.trace_sample,
            public_resolver_share=args.public_resolver_share,
        )
        report = drive_load(
            flags.parse_endpoint(args.dns), flags.parse_endpoint(args.http),
            config, tracer=tracer, resolver_endpoint=resolver_endpoint,
            arrival=args.arrival, duration=args.duration,
        )
    except ValueError as exc:
        # A bad flag value (a ShapeError included) is refused before
        # the first request.
        raise SystemExit(f"loadgen: {exc}") from exc
    print(report.render())
    flags.write_client_trace(args, tracer)
    return 0 if report.healthy() else 1
