"""One edge, one process: the one place per concern that runs it.

The edge is the in-process single loop
(:class:`~repro.serve.cluster.ServeCluster`) and the load is a single
:class:`~repro.serve.loadgen.LoadGenerator` on the caller's event loop.
Each thing a caller does is decided here, once:

* :func:`serve_forever` — boot a standing edge (``repro serve``);
* :func:`drive_load` — one load run against a remote edge
  (``repro loadgen``);
* :func:`selftest` — boot, drive, judge (``repro selftest``).

It is also the one place an open-loop arrival schedule is built
(:func:`_open_loop`).

The selftest returns a :class:`SelftestReport` whose ``checks()`` /
``passed()`` / ``render()`` are the verdict.  An edge is judged from the
load report and the metrics registry alone — the wire's view, as the
paper takes it of a Meta-CDN.  Servers and generator share one event
loop, one registry and one tracer, so client and server spans land in
the same ring buffer.

A flag combination no run can honour (a ``--duration`` without an
arrival process) raises :class:`ShapeError` naming the flag, and a value
the load or its schedule refuses raises ``ValueError``; both before
anything boots, so nothing is dropped silently.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, replace
from typing import Callable, Optional

from ..obs import (
    NULL_REGISTRY,
    NULL_TRACER,
    MetricsRegistry,
    get_tracer,
    use_registry,
    use_tracer,
)
from ..workload.arrival import ArrivalSchedule
from .cluster import ClusterConfig, ServeCluster
from .loadgen import LoadConfig, LoadGenerator, LoadReport

__all__ = [
    "ShapeError",
    "serve_forever",
    "drive_load",
    "SelftestReport",
    "selftest",
]


class ShapeError(ValueError):
    """A combination of load flags no run of the edge can honour."""


def serve_forever(
    config: ClusterConfig,
    announce: Callable[[str], None],
    host: str = "127.0.0.1",
    dns_port: int = 0,
    http_port: int = 0,
    resolver_port: int = 0,
) -> None:
    """Boot a standing edge, announce its endpoints, serve until interrupted.

    Nothing reads a standing edge's telemetry, so the null registry and
    tracer are installed for it, construction-time instruments included.
    """

    def at(label: str, endpoint: tuple[str, int], note: str = "") -> str:
        return f"{label:<5} {endpoint[0]}:{endpoint[1]}{note}"

    async def standing() -> None:
        cluster = ServeCluster(config=config)
        await cluster.start(
            host=host, dns_port=dns_port, http_port=http_port,
            resolver_port=resolver_port,
        )
        try:
            announce(at("dns", cluster.dns.endpoint, "  (udp + tcp fallback)"))
            announce(at("http", cluster.http.endpoint))
            if cluster.resolver_front is not None:
                announce(at(
                    "rslv", cluster.resolver_front.endpoint,
                    f"  (public-resolver front, {config.resolver_population} "
                    "population)",
                ))
            announce("serving the Figure 2 estate; Ctrl-C to stop")
            await asyncio.Event().wait()
        finally:
            await cluster.stop()

    with use_registry(NULL_REGISTRY), use_tracer(NULL_TRACER):
        asyncio.run(standing())


def drive_load(
    dns_endpoint: tuple[str, int],
    http_endpoint: tuple[str, int],
    config: LoadConfig,
    tracer=NULL_TRACER,
    resolver_endpoint: Optional[tuple[str, int]] = None,
    arrival: Optional[str] = None,
    duration: Optional[float] = None,
) -> LoadReport:
    """One load run against a remote edge, from this process's loop.

    The generator's spans land in ``tracer``; ``arrival`` / ``duration``
    replay ``config`` open-loop (see :func:`_open_loop`).
    """
    generator = LoadGenerator(
        dns_endpoint=dns_endpoint,
        http_endpoint=http_endpoint,
        config=_open_loop(config, arrival, duration),
        tracer=tracer,
        resolver_endpoint=resolver_endpoint,
    )
    return asyncio.run(generator.run())


def _hits_and_misses(registry, name: str) -> Optional[tuple[int, int]]:
    """(hits, misses) of an outcome-labelled counter family; None when absent."""
    family = registry.get(name)
    if family is None:
        return None
    hits = misses = 0
    for labels, child in family.children():
        if labels[-1] == "hit":
            hits += int(child.value)
        else:
            misses += int(child.value)
    return hits, misses


@dataclass
class SelftestReport:
    """Everything one selftest run measured; the verdict is derived."""

    report: LoadReport
    registry: MetricsRegistry

    def checks(self, qps_floor: float = 1000.0) -> list[tuple[str, bool]]:
        """The acceptance checks the run must satisfy, as (label, passed)."""
        report = self.report
        hits, misses = _hits_and_misses(
            self.registry, "cache_requests_total"
        ) or (0, 0)
        checks = [
            ("all requests ok", report.healthy()),
            (f"dns >= {qps_floor:.0f} qps sustained", report.dns_qps >= qps_floor),
            ("dns latency percentiles non-zero",
             report.dns_p50_ms > 0.0 and report.dns_p99_ms > 0.0),
            ("http latency percentiles non-zero",
             report.http_p50_ms > 0.0 and report.http_p99_ms > 0.0),
            ("cache hit metrics present", hits + misses > 0),
        ]
        front = _hits_and_misses(self.registry, "resolver_front_cache_total")
        if front is not None:
            checks.append(
                ("public-resolver cache-dilution metrics present", sum(front) > 0)
            )
        return checks

    def passed(self, qps_floor: float = 1000.0) -> bool:
        return all(ok for _, ok in self.checks(qps_floor))

    def render(self, qps_floor: float = 1000.0) -> str:
        """The terminal verdict: load report, edge-side health, checks."""
        hits, misses = _hits_and_misses(
            self.registry, "cache_requests_total"
        ) or (0, 0)
        total = hits + misses
        hit_rate = hits / total if total else 0.0
        dns_family = self.registry.get("serve_dns_queries_total")
        served = 0
        if dns_family is not None:
            served = int(sum(child.value for _labels, child in dns_family.children()))
        lines = [
            self.report.render(),
            "",
            "cluster",
            "-------",
            f"dns queries served   {served}",
            f"cache lookups        {total}  (hits {hits}, misses {misses}, "
            f"hit rate {hit_rate:.1%})",
        ]
        front = _hits_and_misses(self.registry, "resolver_front_cache_total")
        if front is not None:
            front_hits, front_total = front[0], sum(front)
            front_rate = front_hits / front_total if front_total else 0.0
            lines.append(
                f"public resolver      {front_total} lookups  "
                f"(hits {front_hits}, hit rate {front_rate:.1%} — "
                f"shared POP caches)"
            )
        checks = self.checks(qps_floor)
        lines.append("")
        lines += [f"{'PASS' if ok else 'FAIL'}  {label}" for label, ok in checks]
        lines.append("")
        lines.append(
            "selftest " + ("PASSED" if all(ok for _, ok in checks) else "FAILED")
        )
        return "\n".join(lines)


def _open_loop(load: LoadConfig, arrival: Optional[str],
               duration: Optional[float]) -> LoadConfig:
    """``load`` replayed open-loop on the named arrival process, if any.

    The one place an arrival schedule is built, so the schedule's own
    checks (a positive, finite duration) refuse a bad ``--duration``
    before anything boots.  Without an explicit duration the schedule
    spans ``requests / 500`` seconds (a mean of 500 arrivals per
    second), and never under two seconds.
    """
    if arrival is None:
        if duration is not None:
            raise ShapeError("--duration requires --arrival")
        return load
    if duration is None:
        duration = max(2.0, load.requests / 500.0)
    return replace(
        load, arrival=ArrivalSchedule.named(arrival, load.requests, duration)
    )


def selftest(
    requests: int = 5000,
    concurrency: int = 64,
    cluster_config: Optional[ClusterConfig] = None,
    arrival: Optional[str] = None,
    duration: Optional[float] = None,
    tracer=None,
    trace_sample: float = 1.0,
) -> SelftestReport:
    """Boot the edge, drive a full load run through it, report.

    ``arrival`` names an open-loop arrival process (``flash-crowd`` /
    ``uniform``) spanning ``duration`` seconds; the default is the
    closed loop.  ``tracer`` (default: the ambient one) records both
    ends' spans at ``trace_sample``.

    The registry is installed process-wide for the run so the estate's
    construction-time instruments (cache hit/miss counters, site
    request counters) land in it alongside the serve metrics.
    """
    config = cluster_config if cluster_config is not None else ClusterConfig()
    tracer = tracer if tracer is not None else get_tracer()
    load = _open_loop(
        LoadConfig(
            requests=requests, concurrency=concurrency,
            trace_sample=trace_sample,
        ),
        arrival, duration,
    )
    registry = MetricsRegistry()

    async def run() -> LoadReport:
        cluster = ServeCluster(config=config, metrics=registry, tracer=tracer)
        async with cluster:
            return await cluster.drive(load)

    with use_registry(registry), use_tracer(tracer):
        return SelftestReport(asyncio.run(run()), registry)
