"""Single loop or fleet: the one place per concern that chooses.

The edge exists in two shapes — the in-process single loop
(:class:`~repro.serve.cluster.ServeCluster`) and the forked
``SO_REUSEPORT`` fleet (:class:`~repro.serve.fleet.ServeFleet`).  The
load has one: a single :class:`~repro.serve.loadgen.LoadGenerator` on
the caller's event loop.  Callers say how many workers they want; which
shape that means is decided here, once for each thing a caller does:

* :func:`serve_forever` — boot a standing edge (``repro serve``);
* :func:`drive_load` — one load run against a remote edge
  (``repro loadgen``);
* :func:`selftest` — boot, drive, judge (``repro selftest``);
* :func:`drive_watched` — load under a watcher for a fixed span of the
  edge's clock (the live phase of ``repro chaos``).

It is also the one place an open-loop arrival schedule is built
(:func:`_open_loop`), and the fleet selftest and the chaos drill's
fleet phase run through one helper (:func:`_fleet_run`).

The selftest returns a :class:`SelftestReport` whose ``checks()`` /
``passed()`` / ``render()`` are the verdict.  An edge is judged from the
load report and the metrics registry alone — the wire's view, as the
paper takes it of a Meta-CDN — which is why one verdict routine serves
both shapes:

* ``workers == 1`` — servers and generator share one event loop, one
  registry and one tracer, so client and server spans land in the same
  ring buffer;
* ``workers >= 2`` — a fleet driven from this process's loop.  The
  registry is the merge of every worker's; on top of the shared checks
  come the wire-equivalence pass and the merged-metrics check.

A request the chosen shape cannot honour (a tracer across forked
workers, fewer than one worker, a ``--duration`` no open loop can span)
raises :class:`ShapeError` naming the flag, before anything boots;
nothing is dropped silently.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from ..apple.mapping import NAMES
from ..obs import (
    NULL_REGISTRY,
    NULL_TRACER,
    EventTracer,
    MetricsRegistry,
    get_tracer,
    use_registry,
    use_tracer,
)
from ..workload.arrival import ArrivalSchedule
from .admin import AdminServer
from .clients import ClientDirectory
from .cluster import ClusterConfig, ServeCluster, build_serve_estate
from .dnsclient import AsyncDnsClient
from .fleet import FleetConfig, ServeFleet
from .httpclient import PooledHttpClient
from .listener import RunClock
from .loadgen import LoadConfig, LoadGenerator, LoadReport, merge_load_reports

__all__ = [
    "ShapeError",
    "serve_forever",
    "drive_load",
    "drive_watched",
    "SelftestReport",
    "selftest",
]


class ShapeError(ValueError):
    """A request the chosen shape of edge or load cannot honour."""


def serve_forever(
    config: ClusterConfig,
    workers: int,
    announce: Callable[[str], None],
    host: str = "127.0.0.1",
    dns_port: int = 0,
    http_port: int = 0,
    resolver_port: int = 0,
    admin_port: int = 0,
) -> None:
    """Boot a standing edge, announce its endpoints, serve until interrupted.

    ``workers == 1`` is the in-process single loop: servers and admin
    plane share one live registry and tracer, installed ambiently so the
    estate's construction-time cache counters land in the registry the
    admin endpoint exposes.  More workers fork a reuseport fleet; the
    parent then runs the one admin plane, merging every worker's latest
    registry snapshot at scrape time (``resolver_port`` is not used: a
    fleet's shared front port is always ephemeral).
    """
    _check_workers(workers)

    async def standing(lines: list[str], stop) -> None:
        try:
            for line in lines:
                announce(line)
            announce("serving the Figure 2 estate; Ctrl-C to stop")
            await asyncio.Event().wait()
        finally:
            await stop()

    def at(label: str, endpoint: tuple[str, int], note: str = "") -> str:
        return f"{label:<5} {endpoint[0]}:{endpoint[1]}{note}"

    if workers == 1:
        registry, tracer = MetricsRegistry(), EventTracer()

        async def single_loop() -> None:
            cluster = ServeCluster(config=config, metrics=registry, tracer=tracer)
            await cluster.start(
                host=host, dns_port=dns_port, http_port=http_port,
                resolver_port=resolver_port, admin_port=admin_port,
            )
            lines = [
                at("dns", cluster.dns.endpoint, "  (udp + tcp fallback)"),
                at("http", cluster.http.endpoint),
            ]
            if cluster.resolver_front is not None:
                lines.append(at(
                    "rslv", cluster.resolver_front.endpoint,
                    f"  (public-resolver front, {config.resolver_population} "
                    "population)",
                ))
            lines.append(at(
                "admin", cluster.admin.endpoint, "  (/metrics /healthz /traces)"
            ))
            await standing(lines, cluster.stop)

        with use_registry(registry), use_tracer(tracer):
            asyncio.run(single_loop())
        return

    fleet = ServeFleet(FleetConfig(workers=workers, cluster=config))
    fleet.start(host=host, dns_port=dns_port, http_port=http_port)

    async def fleet_admin() -> None:
        admin = AdminServer(
            registry=MetricsRegistry(),
            registry_provider=fleet.merged_registry,
        )
        await admin.start(host=host, port=admin_port)
        lines = [
            at("dns", fleet.dns_endpoint,
               f"  (udp + tcp fallback, {workers} reuseport workers)"),
            at("http", fleet.http_endpoint),
        ]
        if fleet.resolver_endpoint is not None:
            lines.append(at(
                "rslv", fleet.resolver_endpoint,
                "  (public-resolver front, shared across workers)",
            ))
        lines.append(at(
            "admin", admin.endpoint, "  (/metrics merges all workers)"
        ))
        await standing(lines, admin.stop)

    try:
        asyncio.run(fleet_admin())
    finally:
        fleet.stop()


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
    _check_duration(arrival, duration)
    generator = LoadGenerator(
        dns_endpoint=dns_endpoint,
        http_endpoint=http_endpoint,
        config=_open_loop(config, arrival, duration),
        tracer=tracer,
        resolver_endpoint=resolver_endpoint,
    )
    return asyncio.run(generator.run())


# Fleet workers answer at a pinned clock so the equivalence pass can
# compare them with the in-memory resolver at the same instant.
_PINNED_NOW = 0.0


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
    workers: int = 1
    # Fleet runs (workers >= 2) only.
    equivalence_failures: tuple[str, ...] = ()
    worker_errors: dict = field(default_factory=dict)

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
        if self.workers == 1:
            return checks
        family = self.registry.get("serve_fleet_worker_up")
        workers_up = len(list(family.children())) if family is not None else 0
        return checks + [
            ("fleet answers byte-equivalent to single loop",
             not self.equivalence_failures),
            (f"metrics merged from {self.workers} workers",
             workers_up == self.workers and not self.worker_errors),
        ]

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
        title = "selftest"
        if self.workers > 1:
            title = "fleet selftest"
            lines += [
                "",
                "fleet",
                "-----",
                f"serve workers        {self.workers}",
            ]
        checks = self.checks(qps_floor)
        lines.append("")
        lines += [f"{'PASS' if ok else 'FAIL'}  {label}" for label, ok in checks]
        lines += [f"equivalence: {failure}"
                  for failure in self.equivalence_failures[:3]]
        lines.append("")
        lines.append(
            f"{title} " + ("PASSED" if all(ok for _, ok in checks) else "FAILED")
        )
        return "\n".join(lines)


def _check_workers(workers: int) -> None:
    """Refuse an edge of no workers, before anything boots."""
    if workers < 1:
        raise ShapeError("--workers must be positive")


def _check_duration(arrival: Optional[str], duration: Optional[float]) -> None:
    """Refuse a ``--duration`` no open loop can span, before anything boots."""
    if duration is None:
        return
    if arrival is None:
        raise ShapeError("--duration requires --arrival")
    if duration <= 0:
        raise ShapeError("--duration must be positive")


def _open_loop(load: LoadConfig, arrival: Optional[str],
               duration: Optional[float]) -> LoadConfig:
    """``load`` replayed open-loop on the named arrival process, if any.

    The one place an arrival schedule is built.  Without an explicit
    duration the schedule spans ``requests / 500`` seconds (a mean of
    500 arrivals per second), and never under two seconds.
    """
    if arrival is None:
        return load
    if duration is None:
        duration = max(2.0, load.requests / 500.0)
    return replace(
        load, arrival=ArrivalSchedule.named(arrival, load.requests, duration)
    )


def _fleet_run(config: ClusterConfig, workers: int, load: LoadConfig,
               beside, pin_clock: Optional[float] = None):
    """One generator drives a fleet of ``config`` while ``beside`` runs.

    ``beside(fleet, directory, clock)`` is a coroutine function run
    beside the generator on this process's loop (a watcher, the
    equivalence pass); ``clock`` reads seconds since the fleet came up.
    The generator keeps no metrics beyond its report, so the fleet's
    registry holds the workers' alone.
    Returns ``(report, beside's result, merged registry, worker errors,
    directory)`` once every worker is down.
    """
    fleet = ServeFleet(
        FleetConfig(workers=workers, cluster=config, pin_clock=pin_clock)
    )
    fleet.start()
    clock = RunClock().start()
    directory = fleet.spec.directory()
    generator = LoadGenerator(
        dns_endpoint=fleet.dns_endpoint,
        http_endpoint=fleet.http_endpoint,
        directory=directory,
        config=config.loadgen_config(load),
        metrics=NULL_REGISTRY,
        tracer=NULL_TRACER,
        resolver_endpoint=fleet.resolver_endpoint,
    )

    async def both() -> list:
        return await asyncio.gather(
            generator.run(), beside(fleet, directory, clock)
        )

    try:
        report, alongside = asyncio.run(both())
        worker_errors = fleet.worker_errors()
    finally:
        fleet.stop()
    return report, alongside, fleet.merged_registry(), worker_errors, directory


def drive_watched(config: ClusterConfig, workers: int, load: LoadConfig,
                  until: float, watch, registry, tracer):
    """Load through an edge of ``workers`` for ``until`` seconds of its
    clock, while ``watch(dns_endpoint, directory, clock)`` runs beside it.

    The single loop repeats closed-loop runs of ``load`` on the
    cluster's own loop until its clock passes ``until`` and folds the
    back-to-back batches into one report.  A fleet takes one open-loop
    flash crowd spanning ``until`` (``load.requests`` per two seconds,
    at least one run's worth), and its merged metrics are absorbed into
    ``registry`` so both read alike.  Returns ``(report, watch's
    result, directory)``.
    """
    if workers == 1:
        async def single_loop() -> tuple:
            cluster = ServeCluster(config=config, metrics=registry, tracer=tracer)
            batches = []
            async with cluster:
                watcher = asyncio.create_task(
                    watch(cluster.dns.endpoint, cluster.directory, cluster.clock)
                )
                while cluster.clock() < until:
                    batches.append(await cluster.drive(load))
                watched = await watcher
            return merge_load_reports(batches), watched, cluster.directory

        return asyncio.run(single_loop())
    total = max(load.requests, int(load.requests * until / 2.0))
    crowd = _open_loop(replace(load, requests=total), "flash-crowd", until)
    report, watched, merged, _errors, directory = _fleet_run(
        config, workers, crowd,
        lambda fleet, directory, clock: watch(fleet.dns_endpoint, directory, clock),
    )
    registry.absorb_snapshot(merged.snapshot())
    return report, watched, directory


async def _verify_fleet_equivalence(
    fleet: ServeFleet,
    directory: ClientDirectory,
    _clock,
) -> list[str]:
    """Wire answers from the fleet vs the in-memory resolver for 16
    sampled clients, plus the per-connection cache behaviour a single
    loop would show."""
    failures: list[str] = []
    estate = build_serve_estate(fleet.spec.cluster)
    resolver = estate.resolver(cache=False)
    dns_client = await AsyncDnsClient.open(
        *fleet.dns_endpoint, source_prefix_len=32
    )
    try:
        for sequence in range(16):
            sampled = directory.sample(sequence)
            wire = await dns_client.resolve(NAMES.entry_point, sampled.address)
            memory = resolver.resolve(
                NAMES.entry_point, sampled.context(_PINNED_NOW)
            )
            if wire.chain_names != memory.chain_names:
                failures.append(
                    f"seq {sequence}: chain {wire.chain_names} != "
                    f"{memory.chain_names}"
                )
            elif tuple(wire.addresses) != tuple(memory.addresses):
                failures.append(
                    f"seq {sequence}: addresses {wire.addresses} != "
                    f"{memory.addresses}"
                )
    finally:
        dns_client.close()
    # Cache behaviour: a keep-alive connection is pinned to one worker,
    # so a repeated fetch must warm exactly like the single-loop edge —
    # miss first, hit after.
    http = PooledHttpClient(*fleet.http_endpoint, pool_size=1)
    try:
        vip = estate.apple.sites[0].vip_addresses[0]
        client_addr = directory.sample(0).address
        path = "/content/fleet-selftest-cachecheck.ipsw"
        verdicts = []
        for _ in range(2):
            _status, headers, _length = await http.get(
                path, host=NAMES.entry_point, vip=vip, client=client_addr,
                range_bytes=(0, 1023),
            )
            verdicts.append((headers.get("X-Cache") or "").split(",")[0].strip())
        if verdicts[0].startswith("hit"):
            failures.append(f"first fetch unexpectedly warm: {verdicts[0]!r}")
        if not verdicts[1].startswith("hit"):
            failures.append(f"repeat fetch not a cache hit: {verdicts[1]!r}")
    finally:
        await http.close()
    return failures


def selftest(
    workers: int = 1,
    requests: int = 5000,
    concurrency: int = 64,
    cluster_config: Optional[ClusterConfig] = None,
    arrival: Optional[str] = None,
    duration: Optional[float] = None,
    tracer=None,
    trace_sample: float = 1.0,
) -> SelftestReport:
    """Boot an edge of ``workers``, drive a full load run, report.

    ``arrival`` names an open-loop arrival process (``flash-crowd`` /
    ``uniform``) spanning ``duration`` seconds; the default is the
    closed loop.  ``tracer`` (default: the ambient one) and
    ``trace_sample`` apply to the single loop; a request the chosen edge
    cannot honour raises :class:`ShapeError` naming it rather than being
    dropped.  Either edge is driven by one generator on this process's
    loop.

    The single loop's registry is installed process-wide for the run so
    the estate's construction-time instruments (cache hit/miss counters,
    site request counters) land in it alongside the serve metrics.
    """
    config = cluster_config if cluster_config is not None else ClusterConfig()
    tracer = tracer if tracer is not None else get_tracer()
    _check_workers(workers)
    _check_duration(arrival, duration)
    load = _open_loop(
        LoadConfig(
            requests=requests, concurrency=concurrency,
            trace_sample=trace_sample,
        ),
        arrival, duration,
    )
    if workers == 1:
        registry = MetricsRegistry()

        async def single_loop() -> LoadReport:
            cluster = ServeCluster(config=config, metrics=registry, tracer=tracer)
            async with cluster:
                return await cluster.drive(load)

        with use_registry(registry), use_tracer(tracer):
            return SelftestReport(asyncio.run(single_loop()), registry)

    if tracer.enabled:
        raise ShapeError(
            "--trace-out/--trace-sample need the single loop (--workers 1): "
            "fleet workers run untraced"
        )
    report, equivalence, registry, worker_errors, _directory = _fleet_run(
        config, workers, load, _verify_fleet_equivalence,
        pin_clock=_PINNED_NOW,
    )
    return SelftestReport(
        report=report,
        registry=registry,
        workers=workers,
        equivalence_failures=tuple(equivalence),
        worker_errors=worker_errors,
    )
