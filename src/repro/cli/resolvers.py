"""``repro resolvers``: replay a window with a public-resolver
population and print the mapping-accuracy analysis."""

from __future__ import annotations

import argparse
import json

from ..analysis import ResolverAccuracy
from . import flags


def register(commands) -> None:
    sub = commands.add_parser(
        "resolvers",
        help="run a window with a public-resolver population and print "
             "the mapping-accuracy analysis",
    )
    flags.add_window_flags(sub, probes=60, isp_probes=30)
    flags.add_resolver_flags(sub, default_population="mixed")
    sub.add_argument("--json", action="store_true",
                     help="print the mapping-accuracy analysis as JSON")
    sub.set_defaults(handler=run)


def run(args: argparse.Namespace) -> int:
    if args.resolver_population == "isp":
        raise SystemExit(
            "`repro resolvers` needs a public-resolver population; "
            "pass --resolver-population mixed"
        )
    start = flags.parse_date(args.start)
    end = flags.parse_date(args.end)
    engine = flags.engine_from_args(args, start, end)
    engine.run(start, end, workers=args.workers)
    accuracy = ResolverAccuracy.from_scenario(engine.scenario)
    if args.json:
        print(json.dumps(accuracy.to_json_dict(), indent=2, sort_keys=True))
    else:
        print(accuracy.render())
    return 0
