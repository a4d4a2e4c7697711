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
previous one completes, so the worker count (``concurrency``) is what
bounds the work in flight and the generator exerts backpressure instead
of flooding the event loop.  Timeouts and retries are per-query; a
request that fails after retries is counted and sampled, never raised
out of the run.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import ClassVar, Optional

from ..apple.mapping import NAMES
from ..obs import (
    TraceContext,
    get_registry,
    get_tracer,
    new_trace_id,
    sample_trace,
    use_context,
)
from ..obs.registry import HistogramChild
from ..resolver import is_public_client
from ..workload.arrival import ArrivalSchedule
from .clients import ClientDirectory
from .dnsclient import AsyncDnsClient, DnsClientError, WireResolution
from .httpclient import PooledHttpClient

__all__ = [
    "LoadConfig",
    "LoadReport",
    "LoadGenerator",
]

_LATENCY_BUCKETS = (
    0.0002, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5,
)
# An open loop sheds arrivals past this many in flight per unit of
# ``concurrency`` (the closed loop needs no cap: each of its
# ``concurrency`` workers has one request outstanding).
_OPEN_LOOP_IN_FLIGHT_PER_WORKER = 4
# A report keeps this many failed requests' messages; the failures
# themselves are counted, all of them.
_ERROR_SAMPLES = 5
# A cached resolution older than one selection-step TTL is re-resolved
# instead of reused across HTTP retries.
RESOLUTION_MAX_AGE = 15.0


@dataclass
class LoadConfig:
    """Shape and limits of one load-generation run."""

    requests: int = 5000
    concurrency: int = 64
    # Distinct objects fetched, bytes per ranged GET, and the ECS source
    # prefix the DNS clients announce.
    object_count: ClassVar[int] = 32
    range_bytes: ClassVar[int] = 65536
    source_prefix_len: ClassVar[int] = 24
    dns_timeout: float = 2.0
    retries: ClassVar[int] = 2  # DNS re-asks per query
    # Read by nothing: only the perf ledger passes it (None); ledger v2 drops it.
    hedge: None = None
    http_retries: int = 1
    # Fraction of traces recorded when a tracer is active; the decision
    # is deterministic per trace id, so client and servers agree.
    trace_sample: float = 1.0
    # Open-loop mode: when an arrival schedule is set, requests fire at
    # the schedule's times regardless of completions (``requests`` and
    # ``concurrency`` stop driving the count — they only size the
    # connection pool and the in-flight cap).  Arrivals past the
    # in-flight cap are *shed* (counted, not queued): an open loop must
    # never convert overload into backpressure, that's the closed
    # loop's behaviour.
    arrival: Optional[ArrivalSchedule] = None
    # Fraction of clients resolving through a public-resolver front
    # (see repro.serve.resolverfront) instead of the authoritative
    # directly.  Only effective when the generator is handed a
    # resolver endpoint; assignment is repro.resolver's one rule,
    # stable per sequence number, so re-runs agree on who is public.
    # None = the edge's own share, filled in by
    # ClusterConfig.loadgen_config (a generator left with None has no
    # public clients).
    public_resolver_share: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.trace_sample <= 1.0:
            raise ValueError("trace_sample must be in [0, 1]")
        share = self.public_resolver_share
        if share is not None and not 0.0 <= share <= 1.0:
            raise ValueError("public_resolver_share must be in [0, 1]")
        if self.requests <= 0:
            raise ValueError("requests must be positive")
        if self.concurrency <= 0:
            raise ValueError("concurrency must be positive")
        if self.http_retries < 0:
            raise ValueError("http_retries must be non-negative")
        if not 0.0 < self.dns_timeout < math.inf:
            raise ValueError("dns_timeout must be positive and finite")


def _latency_histogram() -> HistogramChild:
    return HistogramChild(_LATENCY_BUCKETS)


def _panel_ms(latency: HistogramChild) -> dict:
    return {k: v * 1000.0 for k, v in latency.percentile_summary().items()}


@dataclass(frozen=True)
class LoadReport:
    """Everything a run learned, percentiles included.

    The two latency histograms travel with the report, and every
    percentile below is read off them on demand.
    """

    requests: int
    ok: int
    errors: int
    elapsed_seconds: float
    dns_queries: int
    dns_timeouts: int
    tcp_fallbacks: int
    body_bytes: int
    dns_latency: HistogramChild = field(default_factory=_latency_histogram)
    http_latency: HistogramChild = field(default_factory=_latency_histogram)
    error_samples: tuple[str, ...] = field(default_factory=tuple)
    retries: int = 0
    reresolutions: int = 0
    # Open-loop arrivals dropped at the in-flight cap (overload is
    # recorded, never queued).
    shed: int = 0

    @property
    def dns_percentiles_ms(self) -> dict:
        """The full-chain resolution p50/p95/p99/p999 panel, in ms."""
        return _panel_ms(self.dns_latency)

    @property
    def http_percentiles_ms(self) -> dict:
        """The ranged-download p50/p95/p99/p999 panel, in ms."""
        return _panel_ms(self.http_latency)

    @property
    def dns_p50_ms(self) -> float:
        return self.dns_percentiles_ms["p50"]

    @property
    def dns_p99_ms(self) -> float:
        return self.dns_percentiles_ms["p99"]

    @property
    def http_p50_ms(self) -> float:
        return self.http_percentiles_ms["p50"]

    @property
    def http_p99_ms(self) -> float:
        return self.http_percentiles_ms["p99"]

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
        dns, http = self.dns_percentiles_ms, self.http_percentiles_ms
        lines = [
            "loadgen report",
            "--------------",
            f"requests        {self.requests}  (ok {self.ok}, errors {self.errors})",
            f"elapsed         {self.elapsed_seconds:.2f} s",
            f"dns queries     {self.dns_queries}  "
            f"({self.dns_qps:,.0f} qps sustained, "
            f"{self.dns_timeouts} timeouts, {self.tcp_fallbacks} tcp fallbacks)",
            f"dns latency     p50 {dns['p50']:.2f} ms   p99 {dns['p99']:.2f} ms (full chain)",
            f"http requests   {self.ok}  ({self.http_rps:,.0f} rps)",
            f"http latency    p50 {http['p50']:.2f} ms   p99 {http['p99']:.2f} ms",
            f"body bytes      {self.body_bytes:,}",
            f"latency panel   dns p95 {dns['p95']:.2f} ms  p999 {dns['p999']:.2f} ms | "
            f"http p95 {http['p95']:.2f} ms  p999 {http['p999']:.2f} ms",
        ]
        if self.shed:
            lines.append(f"shed arrivals   {self.shed}  (open-loop in-flight cap)")
        if self.retries:
            lines.append(f"http retries    {self.retries}")
        if self.reresolutions:
            lines.append(f"re-resolutions  {self.reresolutions}  (15 s TTL expired mid-retry)")
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
        self._dns_hist = _latency_histogram()
        self._http_hist = _latency_histogram()
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
        self._error_samples: list[str] = []
        self._error_count = 0
        self._ok_count = 0
        self._body_bytes = 0
        self._retry_count = 0
        self._reresolution_count = 0
        self._shed_count = 0
        self._dispatched = 0

    async def run(self) -> LoadReport:
        """Execute the configured run; always returns a report."""
        config = self.config

        def open_dns(endpoint: tuple[str, int]):
            return AsyncDnsClient.open(
                *endpoint,
                timeout=config.dns_timeout,
                retries=config.retries,
                source_prefix_len=config.source_prefix_len,
                metrics=self._registry,
                tracer=self._tracer,
            )

        dns = await open_dns(self.dns_endpoint)
        clients = [dns]
        if self.resolver_endpoint is not None and config.public_resolver_share:
            # The front answers non-authoritatively from its POP caches.
            self._public_dns = await open_dns(self.resolver_endpoint)
            clients.append(self._public_dns)
        http = PooledHttpClient(
            *self.http_endpoint, pool_size=config.concurrency, tracer=self._tracer
        )
        sequence = itertools.count()
        started = time.perf_counter()
        self._t0 = started
        workers: list[asyncio.Task] = []
        try:
            if config.arrival is not None:
                await self._run_open_loop(dns, http)
            else:
                workers = [
                    asyncio.create_task(self._worker(dns, http, sequence))
                    for _ in range(config.concurrency)
                ]
                await asyncio.gather(*workers)
        except asyncio.CancelledError:
            # Mid-ramp teardown (the caller cancelled the run): cancel
            # the closed-loop workers and *wait* for them — each
            # worker's finally block must run before the clients close
            # underneath it.
            for task in workers:
                task.cancel()
            if workers:
                await asyncio.gather(*workers, return_exceptions=True)
            raise
        finally:
            elapsed = time.perf_counter() - started
            for client in clients:
                client.close()
            await http.close()
        counts = {
            "requests": (
                self._dispatched if config.arrival is not None else config.requests
            ),
            "ok": self._ok_count,
            "errors": self._error_count,
            "dns_queries": sum(client.queries_sent for client in clients),
            "dns_timeouts": sum(client.timeouts for client in clients),
            "tcp_fallbacks": sum(client.tcp_fallbacks for client in clients),
            "body_bytes": self._body_bytes,
            "retries": self._retry_count,
            "reresolutions": self._reresolution_count,
            "shed": self._shed_count,
        }
        # The one place a report is built: the first few error samples
        # are kept, and the histograms are copied so the report stays
        # fixed.
        return LoadReport(
            **counts,
            elapsed_seconds=elapsed,
            error_samples=tuple(itertools.islice(self._error_samples, _ERROR_SAMPLES)),
            dns_latency=HistogramChild.merge([self._dns_hist]),
            http_latency=HistogramChild.merge([self._http_hist]),
        )

    async def _worker(self, dns: AsyncDnsClient, http: PooledHttpClient,
                      sequence) -> None:
        while True:
            seq = next(sequence)
            if seq >= self.config.requests:
                return
            await self._accounted(dns, http, seq)

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
        limit = config.concurrency * _OPEN_LOOP_IN_FLIGHT_PER_WORKER
        tasks: set[asyncio.Task] = set()
        try:
            for seq, due, region in config.arrival.events():
                delay = due - (time.perf_counter() - self._t0)
                if delay > 0.0:
                    await asyncio.sleep(delay)
                if len(tasks) >= limit:
                    self._shed_count += 1
                    self._m_shed.inc()
                    continue
                self._dispatched += 1
                task = asyncio.create_task(
                    self._accounted(dns, http, seq, region)
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

    async def _accounted(self, dns: AsyncDnsClient, http: PooledHttpClient,
                         seq: int, region=None) -> None:
        """One request of either loop, counted as ok or error.

        Only cancellation gets out: a failed request is a number and a
        sample in the report, never the end of the run.
        """
        self._m_in_flight.inc()
        try:
            await self._one_request(dns, http, seq, region)
            self._ok_count += 1
            self._m_ok.inc()
        except Exception as exc:
            self._error_count += 1
            self._m_error.inc()
            if len(self._error_samples) < _ERROR_SAMPLES:
                self._error_samples.append(f"seq={seq}: {exc}")
        finally:
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

        :func:`~repro.resolver.is_public_client` decides, keyed by
        sequence number, so re-runs agree on who resolves where.
        """
        if self._public_dns is not None and is_public_client(
            seq, self.config.public_resolver_share
        ):
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
            # The cached CNAME chain is only valid for one selection-step
            # TTL; a retry past that must re-resolve, not replay a stale
            # vip set (the re-steer would otherwise be invisible).
            now = time.perf_counter()
            if resolution is not None and now - resolved_at > RESOLUTION_MAX_AGE:
                resolution = None
                self._reresolution_count += 1
                self._m_reresolutions.inc()
            if resolution is None:
                try:
                    resolution = await self._resolve_timed(
                        dns, client.address, NAMES.entry_point
                    )
                except DnsClientError as exc:
                    last_exc = exc
                    continue
                resolved_at = time.perf_counter()
            # Rotated by ``seq + attempt``: a retry lands on another vip.
            addresses = resolution.addresses
            vip = addresses[(seq + attempt) % len(addresses)]
            t_http = time.perf_counter()
            try:
                with self._tracer.span(
                    "client.fetch", ts=self._now(), vip=str(vip)
                ) as fetch_span:
                    status, _headers, body_length = await http.get(
                        path,
                        host=NAMES.entry_point,
                        vip=vip,
                        client=client.address,
                        range_bytes=(0, config.range_bytes - 1),
                    )
                    fetch_span.annotate(status=status)
            except (ConnectionError, asyncio.TimeoutError, OSError) as exc:
                last_exc = RuntimeError(f"transport to vip {vip}: {exc}")
                continue
            http_elapsed = time.perf_counter() - t_http
            self._http_hist.observe(http_elapsed)
            self._m_http_seconds.observe(http_elapsed)
            if status in (200, 206):
                self._body_bytes += body_length
                return
            last_exc = RuntimeError(f"HTTP {status} from vip {vip} for {path}")
            if status >= 500:
                # A failing vip may be re-steered away from by the next
                # selection: drop the cached chain so the retry resolves
                # fresh.
                resolution = None
        raise last_exc if last_exc is not None else RuntimeError(
            f"request seq={seq} failed with no recorded cause"
        )
