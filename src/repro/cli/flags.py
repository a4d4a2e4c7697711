"""Flag groups shared by the commands, and what their values build.

Each group is declared once — ``add_<group>_flags(sub, ...)`` — next to
the function that turns its parsed values into the object a command
needs (a scenario, an engine, a registry/tracer pair).  A command's
parser is the list of groups it takes; defaults that differ between
commands are the groups' only parameters.
"""

from __future__ import annotations

import argparse
import math
from contextlib import contextmanager

from ..net.geo import MappingRegion
from ..obs import (
    NULL_REGISTRY,
    NULL_TRACER,
    EventTracer,
    MetricsRegistry,
    summary_table,
    use_registry,
    use_tracer,
    write_metrics,
    write_trace,
)
from ..resolver import POPULATIONS
from ..simulation import ScenarioConfig, Sep2017Scenario, SimulationEngine
from ..simulation.engine import check_run_window
from ..workload import TIMELINE

# ----------------------------------------------------------------------
# window: which days, at what cadence, scale and parallelism
# ----------------------------------------------------------------------


def add_window_flags(sub: argparse.ArgumentParser, *, probes: int,
                     isp_probes: int,
                     span: tuple[str, str] | None = ("9-18", "9-20")) -> None:
    """The replay window; ``span=None`` for a command with a fixed one."""
    if span is not None:
        sub.add_argument("--start", default=span[0], metavar="M-D",
                         help="start date in 2017 (default %(default)s)")
        sub.add_argument("--end", default=span[1], metavar="M-D",
                         help="end date in 2017 (default %(default)s)")
    sub.add_argument("--step", type=float, default=1800.0,
                     help="engine step in seconds (default 1800)")
    sub.add_argument("--probes", type=int, default=probes,
                     help="global probe count (default %(default)s)")
    sub.add_argument("--isp-probes", type=int, default=isp_probes,
                     help="ISP probe count (default %(default)s)")
    sub.add_argument("--workers", type=int, default=1,
                     help="worker processes for the sharded engine "
                          "(default 1 = serial)")


def parse_date(text: str) -> float:
    month, _, day = text.partition("-")
    try:
        return TIMELINE.at(int(month), int(day))
    except (ValueError, TypeError) as exc:
        raise SystemExit(f"bad date {text!r}; expected M-D, e.g. 9-19") from exc


def scenario_from_args(args: argparse.Namespace) -> Sep2017Scenario:
    """The Sep-2017 world a replay command's flags describe.

    A group the command does not take keeps ``ScenarioConfig``'s
    default.
    """
    config = {
        "global_probe_count": args.probes,
        "isp_probe_count": args.isp_probes,
    }
    if "store_budget_mb" in vars(args):
        config.update(store_config_kwargs(args))
    return Sep2017Scenario(ScenarioConfig(**config))


def engine_from_args(
    args: argparse.Namespace, start: float, end: float
) -> SimulationEngine:
    """The engine over :func:`scenario_from_args` at ``--step``, for a
    run from ``start`` to ``end`` over ``--workers``.

    A flag value the replay refuses (window, worker count, scale, step)
    exits as ``<command>: <message>`` before anything
    is built or run.
    """
    try:
        check_run_window(start, end, args.workers)
        return SimulationEngine(scenario_from_args(args), step_seconds=args.step)
    except ValueError as exc:
        raise SystemExit(f"{args.command}: {exc}") from None


# ----------------------------------------------------------------------
# resolver population, measurement store
# ----------------------------------------------------------------------


def add_resolver_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--resolver-population", choices=POPULATIONS,
                     default="isp",
                     help="who resolves for the clients: isp (per-client "
                          "resolvers) or mixed (--public-resolver-share "
                          "of them behind the public-resolver front's "
                          "shared POP caches; 1.0 puts every client "
                          "there; default %(default)s)")
    sub.add_argument("--public-resolver-share", type=float, default=0.5,
                     metavar="FRACTION",
                     help="client fraction behind public resolvers under "
                          "mixed (default 0.5)")
    sub.add_argument("--public-resolver-ecs", choices=("on", "off"),
                     default="on",
                     help="whether the POPs announce EDNS Client Subnet "
                          "upstream (default on)")
    sub.add_argument("--public-resolver-scope", type=int, default=24,
                     metavar="BITS",
                     help="ECS scope the POPs announce (default 24)")


def resolver_config_kwargs(args: argparse.Namespace) -> dict:
    """ClusterConfig keywords for the resolver flags."""
    return {
        "resolver_population": args.resolver_population,
        "public_resolver_share": args.public_resolver_share,
        "public_resolver_ecs": args.public_resolver_ecs == "on",
        "public_resolver_scope": args.public_resolver_scope,
    }


def add_store_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--store-budget-mb", type=float, default=None,
                     metavar="MB",
                     help="in-memory budget per measurement store; sealed "
                          "columnar segments spill to disk beyond it "
                          "(default: unlimited, never spill)")
    sub.add_argument("--store-spill-dir", metavar="DIR", default=None,
                     help="directory for spilled segments (default: a "
                          "temporary directory, removed on exit)")


def store_config_kwargs(args: argparse.Namespace) -> dict:
    """ScenarioConfig keywords for the measurement-store flags."""
    kwargs: dict = {}
    if args.store_budget_mb is not None:
        if not 0 <= args.store_budget_mb < math.inf:
            raise SystemExit(
                f"{args.command}: --store-budget-mb must be a finite number >= 0"
            )
        kwargs["store_memory_budget_bytes"] = int(
            args.store_budget_mb * 1024 * 1024
        )
    if args.store_spill_dir is not None:
        kwargs["store_spill_dir"] = args.store_spill_dir
    return kwargs


def print_store_stats(args: argparse.Namespace, scenario, lead: str = "") -> None:
    """One line of spill accounting, when a store flag was given."""
    if args.store_budget_mb is None and args.store_spill_dir is None:
        return
    parts = [
        f"{store.name}: {store.segment_count} segments "
        f"({store.spilled_segment_count} spilled, "
        f"{store.resident_bytes / 1024:.0f} KiB resident)"
        for store in scenario.stores
    ]
    print(lead + "store segments: " + "; ".join(parts))


# ----------------------------------------------------------------------
# telemetry of a replay: registry, tracer, per-step lines
# ----------------------------------------------------------------------


def add_telemetry_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--metrics-out", metavar="PATH", default=None,
                     help="write Prometheus-style metrics here after the run")
    sub.add_argument("--trace-out", metavar="PATH", default=None,
                     help="write the JSONL event trace here after the run")
    sub.add_argument("--verbose", action="store_true",
                     help="per-step progress lines plus a metrics summary")


@contextmanager
def telemetry_scope(args: argparse.Namespace):
    """Install and yield the (registry, tracer) a command's flags ask for.

    Any telemetry flag switches the real implementations in; otherwise
    the null handles keep the hot paths on their no-op singletons.
    """
    wanted = args.verbose or args.metrics_out or args.trace_out
    # Fail on an unwritable output path now, not after the whole run.
    for path in (args.metrics_out, args.trace_out):
        if path:
            try:
                with open(path, "w", encoding="utf-8"):
                    pass
            except OSError as exc:
                raise SystemExit(f"cannot write {path}: {exc}") from exc
    registry = MetricsRegistry() if wanted else NULL_REGISTRY
    tracer = EventTracer() if wanted else NULL_TRACER
    with use_registry(registry), use_tracer(tracer):
        yield registry, tracer


def write_telemetry(args: argparse.Namespace, registry, tracer) -> None:
    if args.metrics_out:
        write_metrics(registry, args.metrics_out)
        print(f"metrics written to {args.metrics_out} ({len(registry)} families)")
    if args.trace_out:
        write_trace(tracer, args.trace_out)
        print(f"trace written to {args.trace_out} ({len(tracer)} records)")
    if args.verbose and registry.enabled:
        print()
        print(summary_table(registry))


def operator_split(report) -> str:
    return ", ".join(
        f"{op}={gbps:.0f}G" for op, gbps in sorted(report.operator_gbps.items())
    )


def print_step(report) -> None:
    """The ``--verbose`` line for one engine step."""
    day = TIMELINE.date_label(report.now)
    seconds = int(report.now % 86400.0)
    clock = f"{seconds // 3600:02d}:{seconds % 3600 // 60:02d}"
    print(f"  {day} {clock}  EU "
          f"{report.demand_gbps[MappingRegion.EU]:7.0f} Gbps  "
          f"[{operator_split(report)}]  "
          f"meas={report.measurements} flows={report.flows}")


def measurement_totals(scenario) -> str:
    return (f"{scenario.global_campaign.store.dns_count} global + "
            f"{scenario.isp_campaign.store.dns_count} ISP DNS measurements; "
            f"{len(scenario.netflow)} flow records")


# ----------------------------------------------------------------------
# load against the live edge: shape, client-side tracing, endpoints
# ----------------------------------------------------------------------


def add_load_flags(sub: argparse.ArgumentParser, *, requests: int,
                   concurrency: int) -> None:
    sub.add_argument("--requests", type=int, default=requests,
                     help="requests to drive (default %(default)s)")
    sub.add_argument("--concurrency", type=int, default=concurrency,
                     help="concurrent workers (default %(default)s)")
    sub.add_argument("--arrival", choices=("flash-crowd", "uniform"),
                     default=None,
                     help="open-loop arrival process driven by the "
                          "workload model (default: closed loop)")
    sub.add_argument("--duration", type=float, default=None,
                     help="seconds the arrival schedule spans (open-loop "
                          "only; default max(2, requests / 500), e.g. 10 "
                          "at 5000 requests)")


def add_trace_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--trace-sample", type=float, default=1.0,
                     metavar="RATE",
                     help="fraction of requests to trace end-to-end "
                          "(deterministic per trace id; default 1.0)")
    sub.add_argument("--trace-out", metavar="PATH", default=None,
                     help="write the span trace here (JSONL; enables "
                          "tracing)")


def client_tracer(args: argparse.Namespace):
    """A live tracer whenever spans are wanted on disk or sampling is in
    play (sampled-out counts are part of the report either way)."""
    traced = bool(args.trace_out) or args.trace_sample < 1.0
    return EventTracer() if traced else NULL_TRACER


def write_client_trace(args: argparse.Namespace, tracer) -> None:
    """Span accounting for the run report, and the ``--trace-out`` file."""
    if tracer.enabled:
        stats = tracer.stats()
        print(f"tracing: {stats['emitted']} spans emitted, "
              f"{stats['sampled_out']} sampled out, {stats['dropped']} dropped")
    if args.trace_out:
        write_trace(tracer, args.trace_out)
        print(f"trace written to {args.trace_out} ({len(tracer)} records)")


def check_port(port: int, flag: str, lowest: int = 0) -> int:
    """``port`` if a socket can use it, else ``ValueError`` naming ``flag``.

    A bind port may be 0 (ephemeral); an endpoint to connect to starts
    at ``lowest=1``.
    """
    if not lowest <= port <= 65535:
        raise ValueError(f"{flag} must be in {lowest}..65535, got {port}")
    return port


def parse_endpoint(text: str) -> tuple[str, int]:
    """``HOST:PORT`` as ``(host, port)``; ``ValueError`` when it is not one."""
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"bad endpoint {text!r}; expected HOST:PORT")
    return host, check_port(int(port), f"the port of {text!r}", lowest=1)
