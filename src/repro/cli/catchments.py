"""``repro catchments``: replay a window under anycast steering and
print the catchment map and its churn."""

from __future__ import annotations

import argparse
import json

from ..anycast import CatchmentAnalysis
from ..workload import TIMELINE
from . import flags


def register(commands) -> None:
    sub = commands.add_parser(
        "catchments",
        help="run a window under anycast steering and print the catchment map",
    )
    flags.add_window_flags(sub, probes=60, isp_probes=30)
    flags.add_fault_flag(sub)
    sub.add_argument("--json", action="store_true",
                     help="print the catchment analysis as JSON")
    # Not a flag: the scenario this command builds always steers by
    # catchment.
    sub.set_defaults(handler=run, steering="anycast")


def run(args: argparse.Namespace) -> int:
    start = flags.parse_date(args.start)
    end = flags.parse_date(args.end)
    engine = flags.engine_from_args(args, start, end)
    engine.run(start, end, workers=args.workers)
    plane = engine.scenario.anycast  # never None: steering is "anycast"
    final_map = plane.catchment_map(end)
    analysis = CatchmentAnalysis.from_plane(plane)
    if args.json:
        print(json.dumps(
            {
                "steering": "anycast",
                "catchments": analysis.to_json_dict(),
                "final_map": final_map.to_json_dict(),
            },
            indent=2,
            sort_keys=True,
        ))
        return 0
    print(f"catchment map at {TIMELINE.date_label(end)} "
          f"(anycast steering, {len(plane.groups)} client groups, "
          f"{len(plane.sites)} sites, signature {final_map.signature[:16]}):")
    for site_id, share in final_map.share_by_site().items():
        site = plane.site_by_id[site_id]
        bar = "#" * max(1, round(share * 40))
        print(f"  {site_id:<12} {share * 100:5.1f}%  "
              f"({site.region.value}) {bar}")
    print()
    print(f"ticks observed        {analysis.ticks}")
    print(f"sites live            {analysis.sites_live} / {len(plane.sites)}")
    print(f"catchment-map changes {analysis.map_changes}")
    print(f"affinity-break rate   {analysis.affinity_break_rate:.4f} "
          f"(group-moves per group per tick)")
    print(f"shifted traffic       {analysis.shifted_gbps_total:.1f} Gbps")
    print(f"mapping distance      {analysis.mapping_distance_km:.0f} km mean "
          f"(nearest-site ideal {analysis.nearest_distance_km:.0f} km, "
          f"anycast cost +{analysis.mapping_distance_delta_km:.0f} km)")
    return 0
