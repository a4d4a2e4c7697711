"""Closed-loop load generation against the live serving layer.

The measured event is a flash crowd: millions of devices resolving
``appldnld.apple.com`` and pulling ranged slices of a multi-gigabyte
image.  :class:`LoadGenerator` replays that shape against a live
:mod:`repro.serve` cluster — each worker acts as one device after
another: sample a client from the vantage directory (regional mix from
the adoption model), walk the full Figure 2 CNAME chain over UDP
(falling back to TCP on truncation), then download a range from the
resolved vip over a pooled keep-alive connection.

The loop is *closed*: a worker issues its next request only after the
previous one completes, and a bounded semaphore caps total in-flight
work, so the generator exerts backpressure instead of flooding the
event loop.  Timeouts and retries are per-query; a request that fails
after retries is counted and sampled, never raised out of the run.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field
from typing import Optional

from ..dns.policies import stable_fraction
from ..net.ipv4 import IPv4Address
from ..obs import (
    TraceContext,
    get_registry,
    get_tracer,
    new_trace_id,
    sample_trace,
    use_context,
)
from ..obs.registry import HistogramChild
from ..workload.arrival import ArrivalSchedule
from .clients import ClientDirectory
from .dnsclient import AsyncDnsClient, DnsClientError, WireResolution
from .httpclient import PooledHttpClient
from .resilience import BackoffPolicy, CircuitBreaker, HedgePolicy

__all__ = [
    "LoadConfig",
    "LoadReport",
    "LoadGenerator",
    "merge_load_reports",
]

_LATENCY_BUCKETS = (
    0.0002, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5,
)


@dataclass
class LoadConfig:
    """Shape and limits of one load-generation run."""

    requests: int = 5000
    concurrency: int = 64
    max_in_flight: Optional[int] = None  # defaults to concurrency
    entry_point: str = "appldnld.apple.com"
    object_count: int = 32
    range_bytes: int = 65536
    dns_timeout: float = 2.0
    http_timeout: float = 5.0
    retries: int = 2
    source_prefix_len: int = 24
    # Client-side resilience (see repro.serve.resilience).  A cached
    # resolution older than ``resolution_max_age`` (the 15 s selection
    # TTL) is re-resolved instead of reused across HTTP retries.
    backoff: BackoffPolicy = field(default_factory=BackoffPolicy)
    hedge: Optional[HedgePolicy] = field(default_factory=HedgePolicy)
    http_retries: int = 1
    resolution_max_age: float = 15.0
    breaker_failures: int = 5
    breaker_cooldown: float = 1.0
    # Fraction of traces recorded when a tracer is active; the decision
    # is deterministic per trace id, so client and servers agree.
    trace_sample: float = 1.0
    # Open-loop mode: when an arrival schedule is set, requests fire at
    # the schedule's times regardless of completions (``requests`` and
    # ``concurrency`` stop driving the count — they only size the
    # connection pool and the in-flight cap).  ``arrival_offset`` /
    # ``arrival_stride`` select this process's slice of a fleet-shared
    # schedule.  Arrivals past the in-flight cap are *shed* (counted,
    # not queued): an open loop must never convert overload into
    # backpressure, that's the closed loop's behaviour.
    arrival: Optional[ArrivalSchedule] = None
    arrival_offset: int = 0
    arrival_stride: int = 1
    # Closed-loop fleet splitting: this process owns sequence numbers
    # [seq_start, seq_start + requests), so N processes cover disjoint
    # slices of the same deterministic client/path sequence.
    seq_start: int = 0
    # Fraction of clients resolving through a public-resolver front
    # (see repro.serve.resolverfront) instead of the authoritative
    # directly.  Only effective when the generator is handed a
    # resolver endpoint; assignment is stable per sequence number, so
    # fleet slices agree on who is public.
    public_resolver_share: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.trace_sample <= 1.0:
            raise ValueError("trace_sample must be in [0, 1]")
        if not 0.0 <= self.public_resolver_share <= 1.0:
            raise ValueError("public_resolver_share must be in [0, 1]")
        if self.seq_start < 0:
            raise ValueError("seq_start must be non-negative")
        if self.arrival_stride <= 0:
            raise ValueError("arrival_stride must be positive")
        if not 0 <= self.arrival_offset < self.arrival_stride:
            raise ValueError("arrival_offset must be in [0, arrival_stride)")
        if self.requests <= 0:
            raise ValueError("requests must be positive")
        if self.concurrency <= 0:
            raise ValueError("concurrency must be positive")
        if self.object_count <= 0:
            raise ValueError("object_count must be positive")
        if self.range_bytes <= 0:
            raise ValueError("range_bytes must be positive")
        if self.http_retries < 0:
            raise ValueError("http_retries must be non-negative")
        if self.resolution_max_age <= 0:
            raise ValueError("resolution_max_age must be positive")


@dataclass(frozen=True)
class LoadReport:
    """Everything a run learned, percentiles included."""

    requests: int
    ok: int
    errors: int
    elapsed_seconds: float
    dns_queries: int
    dns_timeouts: int
    tcp_fallbacks: int
    body_bytes: int
    dns_p50_ms: float
    dns_p99_ms: float
    http_p50_ms: float
    http_p99_ms: float
    error_samples: tuple[str, ...] = field(default_factory=tuple)
    retries: int = 0
    reresolutions: int = 0
    hedged: int = 0
    # Full p50/p95/p99/p999 panels (ms), from percentile_summary.
    dns_percentiles_ms: dict = field(default_factory=dict)
    http_percentiles_ms: dict = field(default_factory=dict)
    # Open-loop arrivals dropped at the in-flight cap (overload is
    # recorded, never queued).
    shed: int = 0
    # Raw latency histogram payloads — (uppers, bucket_counts, sum,
    # count) — so a fleet of generator processes can merge reports
    # with exact percentiles (see merge_load_reports).
    dns_hist: Optional[tuple] = None
    http_hist: Optional[tuple] = None

    @property
    def dns_qps(self) -> float:
        """Sustained DNS queries per second over the whole run."""
        return self.dns_queries / self.elapsed_seconds if self.elapsed_seconds else 0.0

    @property
    def http_rps(self) -> float:
        """Completed HTTP requests per second."""
        return self.ok / self.elapsed_seconds if self.elapsed_seconds else 0.0

    def healthy(self) -> bool:
        """True when every request completed without error."""
        return self.errors == 0 and self.ok == self.requests

    def render(self) -> str:
        """A terminal-friendly summary block."""
        lines = [
            "loadgen report",
            "--------------",
            f"requests        {self.requests}  (ok {self.ok}, errors {self.errors})",
            f"elapsed         {self.elapsed_seconds:.2f} s",
            f"dns queries     {self.dns_queries}  "
            f"({self.dns_qps:,.0f} qps sustained, "
            f"{self.dns_timeouts} timeouts, {self.tcp_fallbacks} tcp fallbacks)",
            f"dns latency     p50 {self.dns_p50_ms:.2f} ms   p99 {self.dns_p99_ms:.2f} ms (full chain)",
            f"http requests   {self.ok}  ({self.http_rps:,.0f} rps)",
            f"http latency    p50 {self.http_p50_ms:.2f} ms   p99 {self.http_p99_ms:.2f} ms",
            f"body bytes      {self.body_bytes:,}",
        ]
        if self.dns_percentiles_ms and self.http_percentiles_ms:
            lines.append(
                "latency panel   dns p95 {:.2f} ms  p999 {:.2f} ms | "
                "http p95 {:.2f} ms  p999 {:.2f} ms".format(
                    self.dns_percentiles_ms.get("p95", 0.0),
                    self.dns_percentiles_ms.get("p999", 0.0),
                    self.http_percentiles_ms.get("p95", 0.0),
                    self.http_percentiles_ms.get("p999", 0.0),
                )
            )
        if self.shed:
            lines.append(f"shed arrivals   {self.shed}  (open-loop in-flight cap)")
        if self.retries:
            lines.append(f"http retries    {self.retries}")
        if self.reresolutions:
            lines.append(f"re-resolutions  {self.reresolutions}  (15 s TTL expired mid-retry)")
        if self.hedged:
            lines.append(f"hedged lookups  {self.hedged}")
        for sample in self.error_samples:
            lines.append(f"error sample    {sample}")
        return "\n".join(lines)


class LoadGenerator:
    """Drives the workload model through a live serve cluster."""

    def __init__(
        self,
        dns_endpoint: tuple[str, int],
        http_endpoint: tuple[str, int],
        directory: Optional[ClientDirectory] = None,
        config: Optional[LoadConfig] = None,
        metrics=None,
        tracer=None,
        resolver_endpoint: Optional[tuple[str, int]] = None,
    ) -> None:
        self.dns_endpoint = dns_endpoint
        self.http_endpoint = http_endpoint
        # A public-resolver front; the config's share of clients
        # resolve through it instead of the authoritative endpoint.
        self.resolver_endpoint = resolver_endpoint
        self._public_dns: Optional[AsyncDnsClient] = None
        self.directory = (
            directory if directory is not None else ClientDirectory.from_adoption()
        )
        self.config = config if config is not None else LoadConfig()
        # Local histograms so percentiles exist even under the null
        # registry; the same observations feed the registry instruments.
        self._dns_hist = HistogramChild(_LATENCY_BUCKETS)
        self._http_hist = HistogramChild(_LATENCY_BUCKETS)
        registry = metrics if metrics is not None else get_registry()
        self._registry = registry
        # Each logical request roots one trace; spans and wire stamps
        # only happen when this tracer is enabled.
        self._tracer = tracer if tracer is not None else get_tracer()
        self._t0 = 0.0
        self._m_requests = registry.counter(
            "loadgen_requests_total",
            "Closed-loop requests issued, by outcome",
            ("outcome",),
        )
        self._m_ok = self._m_requests.labels("ok")
        self._m_error = self._m_requests.labels("error")
        self._m_dns_seconds = registry.histogram(
            "loadgen_dns_resolution_seconds",
            "Full-chain DNS resolution latency",
            buckets=_LATENCY_BUCKETS,
        )
        self._m_http_seconds = registry.histogram(
            "loadgen_http_request_seconds",
            "Ranged download request latency",
            buckets=_LATENCY_BUCKETS,
        )
        self._m_in_flight = registry.gauge(
            "loadgen_in_flight", "Requests currently in flight"
        )
        self._m_retries = registry.counter(
            "loadgen_http_retries_total",
            "HTTP attempts beyond the first, per request",
        )
        self._m_reresolutions = registry.counter(
            "loadgen_reresolutions_total",
            "Retries that re-resolved because the cached chain's TTL expired",
        )
        self._m_shed = registry.counter(
            "loadgen_shed_total",
            "Open-loop arrivals dropped at the in-flight cap",
        )
        self._errors: list[str] = []
        self._ok_count = 0
        self._body_bytes = 0
        self._retry_count = 0
        self._reresolution_count = 0
        self._shed_count = 0
        self._dispatched = 0
        self._inflight = 0
        self._breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_failures,
            cooldown=self.config.breaker_cooldown,
        )

    async def run(self) -> LoadReport:
        """Execute the configured run; always returns a report."""
        config = self.config
        dns = await AsyncDnsClient.open(
            *self.dns_endpoint,
            timeout=config.dns_timeout,
            retries=config.retries,
            source_prefix_len=config.source_prefix_len,
            metrics=self._registry,
            backoff=config.backoff,
            hedge=config.hedge,
            tracer=self._tracer,
        )
        if (
            self.resolver_endpoint is not None
            and config.public_resolver_share > 0.0
        ):
            # The front answers non-authoritatively from its POP
            # caches; hedging stays client-side, exactly as with a
            # real public resolver.
            self._public_dns = await AsyncDnsClient.open(
                *self.resolver_endpoint,
                timeout=config.dns_timeout,
                retries=config.retries,
                source_prefix_len=config.source_prefix_len,
                metrics=self._registry,
                backoff=config.backoff,
                hedge=config.hedge,
                tracer=self._tracer,
            )
        http = PooledHttpClient(
            *self.http_endpoint,
            pool_size=config.concurrency,
            timeout=config.http_timeout,
            tracer=self._tracer,
        )
        in_flight = asyncio.Semaphore(config.max_in_flight or config.concurrency)
        sequence = itertools.count(config.seq_start)
        started = time.perf_counter()
        self._t0 = started
        workers: list[asyncio.Task] = []
        try:
            if config.arrival is not None:
                await self._run_open_loop(dns, http)
            else:
                workers = [
                    asyncio.create_task(
                        self._worker(dns, http, sequence, in_flight)
                    )
                    for _ in range(config.concurrency)
                ]
                await asyncio.gather(*workers)
        except asyncio.CancelledError:
            # Mid-ramp teardown (fleet SIGTERM): cancel the closed-loop
            # workers and *wait* for them — each worker's finally block
            # must run before the clients close underneath it.
            for task in workers:
                task.cancel()
            if workers:
                await asyncio.gather(*workers, return_exceptions=True)
            raise
        finally:
            elapsed = time.perf_counter() - started
            dns.close()
            if self._public_dns is not None:
                self._public_dns.close()
            await http.close()
        requests = (
            self._dispatched if config.arrival is not None else config.requests
        )
        public = self._public_dns
        dns_queries = dns.queries_sent + (public.queries_sent if public else 0)
        dns_timeouts = dns.timeouts + (public.timeouts if public else 0)
        tcp_fallbacks = dns.tcp_fallbacks + (public.tcp_fallbacks if public else 0)
        hedged = dns.hedged_queries + (public.hedged_queries if public else 0)
        dns_panel = {
            k: v * 1000.0 for k, v in self._dns_hist.percentile_summary().items()
        }
        http_panel = {
            k: v * 1000.0 for k, v in self._http_hist.percentile_summary().items()
        }
        return LoadReport(
            requests=requests,
            ok=self._ok_count,
            errors=len(self._errors),
            elapsed_seconds=elapsed,
            dns_queries=dns_queries,
            dns_timeouts=dns_timeouts,
            tcp_fallbacks=tcp_fallbacks,
            body_bytes=self._body_bytes,
            dns_p50_ms=dns_panel["p50"],
            dns_p99_ms=dns_panel["p99"],
            http_p50_ms=http_panel["p50"],
            http_p99_ms=http_panel["p99"],
            error_samples=tuple(self._errors[:5]),
            retries=self._retry_count,
            reresolutions=self._reresolution_count,
            hedged=hedged,
            dns_percentiles_ms=dns_panel,
            http_percentiles_ms=http_panel,
            shed=self._shed_count,
            dns_hist=(
                tuple(self._dns_hist.uppers),
                list(self._dns_hist.bucket_counts),
                self._dns_hist.sum,
                self._dns_hist.count,
            ),
            http_hist=(
                tuple(self._http_hist.uppers),
                list(self._http_hist.bucket_counts),
                self._http_hist.sum,
                self._http_hist.count,
            ),
        )

    async def _worker(self, dns: AsyncDnsClient, http: PooledHttpClient,
                      sequence, in_flight: asyncio.Semaphore) -> None:
        while True:
            seq = next(sequence)
            if seq >= self.config.seq_start + self.config.requests:
                return
            async with in_flight:
                self._m_in_flight.inc()
                try:
                    await self._one_request(dns, http, seq)
                    self._ok_count += 1
                    self._m_ok.inc()
                except Exception as exc:  # the loop must survive anything
                    self._m_error.inc()
                    if len(self._errors) < 100:
                        self._errors.append(f"seq={seq}: {exc}")
                finally:
                    self._m_in_flight.dec()

    async def _run_open_loop(self, dns: AsyncDnsClient,
                             http: PooledHttpClient) -> None:
        """Fire requests at the arrival schedule's times.

        The dispatcher sleeps until each arrival is due, then launches
        it as an independent task — completions never gate arrivals.
        The only coupling to server health is the in-flight cap:
        arrivals that would exceed it are shed and counted, exactly
        what a saturated open-loop generator should report.
        """
        config = self.config
        assert config.arrival is not None
        limit = config.max_in_flight or config.concurrency * 4
        tasks: set[asyncio.Task] = set()
        try:
            for seq, due, region in config.arrival.events(
                config.arrival_offset, config.arrival_stride
            ):
                delay = due - (time.perf_counter() - self._t0)
                if delay > 0.0:
                    await asyncio.sleep(delay)
                if self._inflight >= limit:
                    self._shed_count += 1
                    self._m_shed.inc()
                    continue
                self._inflight += 1
                self._dispatched += 1
                task = asyncio.create_task(
                    self._one_arrival(dns, http, seq, region)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            if tasks:
                await asyncio.gather(*tasks)
        except asyncio.CancelledError:
            for task in list(tasks):
                task.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            raise

    async def _one_arrival(self, dns: AsyncDnsClient, http: PooledHttpClient,
                           seq: int, region) -> None:
        self._m_in_flight.inc()
        try:
            await self._one_request(dns, http, seq, region=region)
            self._ok_count += 1
            self._m_ok.inc()
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # open-loop arrivals must not cascade
            self._m_error.inc()
            if len(self._errors) < 100:
                self._errors.append(f"seq={seq}: {exc}")
        finally:
            self._inflight -= 1
            self._m_in_flight.dec()

    def _now(self) -> float:
        """Run-relative seconds, the ts stamped on client spans."""
        return time.perf_counter() - self._t0

    async def _resolve_timed(self, dns: AsyncDnsClient, client,
                             entry_point: str) -> WireResolution:
        t_dns = time.perf_counter()
        with self._tracer.span(
            "client.resolve", ts=self._now(), qname=entry_point
        ) as span:
            resolution = await dns.resolve(entry_point, client)
            span.annotate(
                chain=len(resolution.chain_names),
                addresses=len(resolution.addresses),
            )
        dns_elapsed = time.perf_counter() - t_dns
        self._dns_hist.observe(dns_elapsed)
        self._m_dns_seconds.observe(dns_elapsed)
        if not resolution.addresses:
            raise DnsClientError(
                f"chain for {entry_point!r} ended without A records "
                f"at {resolution.final_name!r}"
            )
        return resolution

    def _pick_vip(self, resolution: WireResolution, seq: int,
                  attempt: int) -> IPv4Address:
        """A vip from the answer set, skipping open circuits.

        Rotation starts at ``seq + attempt`` so a retry naturally lands
        on a different vip; if every circuit is open the rotated first
        choice is used anyway (the breaker must not wedge the run).
        """
        addresses = resolution.addresses
        start = (seq + attempt) % len(addresses)
        rotated = addresses[start:] + addresses[:start]
        for vip in rotated:
            if self._breaker.allow(str(vip)):
                return vip
        return rotated[0]

    async def _one_request(self, dns: AsyncDnsClient, http: PooledHttpClient,
                           seq: int, region=None) -> None:
        if not self._tracer.enabled:
            return await self._attempts(dns, http, seq, region)
        # Root one trace per logical request.  The id is deterministic
        # in ``seq`` and the sampling decision deterministic in the id,
        # so a re-run traces the same requests.
        trace_id = new_trace_id(f"loadgen|{seq}")
        context = TraceContext(
            trace_id=trace_id,
            sampled=sample_trace(trace_id, self.config.trace_sample),
        )
        with use_context(context):
            with self._tracer.span(
                "client.request", ts=self._now(), seq=seq
            ) as span:
                await self._attempts(dns, http, seq, region)
                span.annotate(outcome="ok")

    def _dns_for(self, dns: AsyncDnsClient, seq: int) -> AsyncDnsClient:
        """The resolver this client uses: ISP path or the public front.

        Assignment is stable in the sequence number (the same keying
        the engine's resolver plane uses for its mixed population), so
        re-runs and fleet slices agree on who resolves where.
        """
        if self._public_dns is None:
            return dns
        share = self.config.public_resolver_share
        if share >= 1.0 or stable_fraction("resolver-population", seq) < share:
            return self._public_dns
        return dns

    async def _attempts(self, dns: AsyncDnsClient, http: PooledHttpClient,
                        seq: int, region=None) -> None:
        config = self.config
        dns = self._dns_for(dns, seq)
        # Open-loop arrivals come with the region the workload model
        # woke up; closed-loop draws the full weighted mix.
        client = (
            self.directory.sample_in_region(region, seq)
            if region is not None else self.directory.sample(seq)
        )
        path = f"/content/ios11-part{seq % config.object_count:03d}.ipsw"
        resolution: Optional[WireResolution] = None
        resolved_at = 0.0
        last_exc: Optional[Exception] = None
        for attempt in range(config.http_retries + 1):
            if attempt > 0:
                self._retry_count += 1
                self._m_retries.inc()
                await asyncio.sleep(
                    config.backoff.delay(attempt - 1, "http", seq)
                )
            # The cached CNAME chain is only valid for one selection-step
            # TTL; a retry past that must re-resolve, not replay a stale
            # vip set (the re-steer would otherwise be invisible).
            now = time.perf_counter()
            if resolution is not None and now - resolved_at > config.resolution_max_age:
                resolution = None
                self._reresolution_count += 1
                self._m_reresolutions.inc()
            if resolution is None:
                try:
                    resolution = await self._resolve_timed(
                        dns, client.address, config.entry_point
                    )
                except DnsClientError as exc:
                    last_exc = exc
                    continue
                resolved_at = time.perf_counter()
            vip = self._pick_vip(resolution, seq, attempt)
            t_http = time.perf_counter()
            try:
                with self._tracer.span(
                    "client.fetch", ts=self._now(), vip=str(vip)
                ) as fetch_span:
                    status, _headers, body_length = await http.get(
                        path,
                        host=config.entry_point,
                        vip=vip,
                        client=client.address,
                        range_bytes=(0, config.range_bytes - 1),
                    )
                    fetch_span.annotate(status=status)
            except (ConnectionError, asyncio.TimeoutError, OSError) as exc:
                self._breaker.record_failure(str(vip))
                last_exc = RuntimeError(f"transport to vip {vip}: {exc}")
                continue
            http_elapsed = time.perf_counter() - t_http
            self._http_hist.observe(http_elapsed)
            self._m_http_seconds.observe(http_elapsed)
            if status in (200, 206):
                self._breaker.record_success(str(vip))
                self._body_bytes += body_length
                return
            self._breaker.record_failure(str(vip))
            last_exc = RuntimeError(f"HTTP {status} from vip {vip} for {path}")
            if status >= 500:
                # A failing vip (injected fault or real outage) may be
                # re-steered away from by the next selection: drop the
                # cached chain so the retry resolves fresh.
                resolution = None
        raise last_exc if last_exc is not None else RuntimeError(
            f"request seq={seq} failed with no recorded cause"
        )


def _hist_from_payload(payload: Optional[tuple]) -> HistogramChild:
    """Rebuild a latency histogram from a report's raw payload."""
    if payload is None:
        return HistogramChild(_LATENCY_BUCKETS)
    uppers, buckets, total, count = payload
    child = HistogramChild(tuple(uppers))
    child.bucket_counts = list(buckets)
    child.sum = total
    child.count = count
    return child


def merge_load_reports(reports: list) -> LoadReport:
    """One report for a fleet of generator processes.

    Counts add; elapsed is the *maximum* (the processes ran
    concurrently, so rates divide by the longest run, which slightly
    understates qps rather than inflating it); percentiles come from
    merging the raw histograms, so the fleet's p999 is exact to bucket
    resolution — not an average of per-process percentiles, which
    would be meaningless.
    """
    inputs = [r for r in reports if r is not None]
    if not inputs:
        raise ValueError("merge_load_reports needs at least one report")
    if len(inputs) == 1:
        return inputs[0]
    dns_merged = HistogramChild.merge(
        [_hist_from_payload(r.dns_hist) for r in inputs]
    )
    http_merged = HistogramChild.merge(
        [_hist_from_payload(r.http_hist) for r in inputs]
    )
    dns_panel = {
        k: v * 1000.0 for k, v in dns_merged.percentile_summary().items()
    }
    http_panel = {
        k: v * 1000.0 for k, v in http_merged.percentile_summary().items()
    }
    samples: list[str] = []
    for report in inputs:
        samples.extend(report.error_samples)
    return LoadReport(
        requests=sum(r.requests for r in inputs),
        ok=sum(r.ok for r in inputs),
        errors=sum(r.errors for r in inputs),
        elapsed_seconds=max(r.elapsed_seconds for r in inputs),
        dns_queries=sum(r.dns_queries for r in inputs),
        dns_timeouts=sum(r.dns_timeouts for r in inputs),
        tcp_fallbacks=sum(r.tcp_fallbacks for r in inputs),
        body_bytes=sum(r.body_bytes for r in inputs),
        dns_p50_ms=dns_panel["p50"],
        dns_p99_ms=dns_panel["p99"],
        http_p50_ms=http_panel["p50"],
        http_p99_ms=http_panel["p99"],
        error_samples=tuple(samples[:5]),
        retries=sum(r.retries for r in inputs),
        reresolutions=sum(r.reresolutions for r in inputs),
        hedged=sum(r.hedged for r in inputs),
        dns_percentiles_ms=dns_panel,
        http_percentiles_ms=http_panel,
        shed=sum(r.shed for r in inputs),
        dns_hist=(
            tuple(dns_merged.uppers),
            list(dns_merged.bucket_counts),
            dns_merged.sum,
            dns_merged.count,
        ),
        http_hist=(
            tuple(http_merged.uppers),
            list(http_merged.bucket_counts),
            http_merged.sum,
            http_merged.count,
        ),
    )
