"""Edge workloads: closed-loop items against an in-process ``ServeCluster``.

``edge_dns`` items are full ``appldnld.apple.com`` CNAME-chain
resolutions, half the clients through the ``PublicResolverFront`` and
half straight to the authoritative; ``edge_http`` items are ranged GETs
over two keep-alive connections.  Servers and the two closed-loop
clients share one event loop in one process, so an item's latency is
compute, not scheduling between processes — which is what repeats on a
shared 2-core host.  The cluster clock is virtual (model time advances
per completed item), so TTL expiries, and with them every hit/miss
count, repeat exactly.

The traced run adds harness-side spans (``item -> resolve -> hop`` /
``item -> fetch``), micro-timings of public calls, a null-responder
calibration of the client's own cost, and an open-loop pass.
"""

from __future__ import annotations

import asyncio
import contextvars
import gc
import os
import shutil
import statistics
import time
from hashlib import blake2b

from repro.dns.policies import stable_fraction
from repro.dns.query import Question
from repro.dns.records import RecordType
from repro.dns.wire import ClientSubnet, WireMessage, decode_message, encode_message
from repro.http.messages import Headers, HttpRequest
from repro.net.ipv4 import IPv4Address, IPv4Prefix
from repro.obs import (
    NULL_REGISTRY,
    NULL_TRACER,
    EventTracer,
    MetricsRegistry,
    use_registry,
)
from repro.serve import (
    AsyncDnsClient,
    ClusterConfig,
    FleetConfig,
    LoadConfig,
    PooledHttpClient,
    ServeCluster,
    ServeFleet,
    estate_router,
    load_snapshot,
    write_snapshot,
)
from repro.workload.arrival import ArrivalSchedule

from harness import (
    BLOCKS,
    OUT_DIR,
    HostSpeed,
    Outcome,
    Spans,
    counter_total,
    cpu_seconds,
    peak_rss_mb,
    percentile,
    scratch_dir,
    spread,
)

ENTRY = "appldnld.apple.com"
NOMINAL_ITEMS = {"edge_dns": 24_000, "edge_http": 40_000}
CLIENTS = min(2, os.cpu_count() or 1)     # closed-loop tasks = sockets
MODEL_SECONDS_PER_ITEM = 0.002            # virtual cluster clock
# AsyncDnsClient._next_id repeats id 1 at the 16-bit wrap (see README);
# every client is reopened well before it gets there.
ROTATE_BEFORE_QUERIES = 40_000
RANGES = (4096, 65_536, 262_144)
# Skewed object population: a head of a few images takes HEAD_SHARE of
# the requests (one IPSW per device model dominates an iOS release), a
# tail of one-off objects takes the rest.  The head is warm on every
# edge cache within the first block, so the hit ratio sits near
# HEAD_SHARE for the whole run instead of climbing through it.
HEAD_OBJECTS = 4
HEAD_SHARE = 0.7
_SETUP_REPEATS = 3
_OPEN_LOOP_SHARE = 0.25                   # of the measured closed-loop rate
_OPEN_LOOP_CAP = 64


def _seq_base(seed: int) -> int:
    return seed * 1_000_003


# ----------------------------------------------------------------------
# the cluster under test
# ----------------------------------------------------------------------


class _Edge:
    """One booted cluster plus the client sockets driving it."""

    def __init__(self, registry, tracer=NULL_TRACER) -> None:
        self.registry = registry
        self.tracer = tracer
        self.completed = 0
        self.cluster: ServeCluster = None
        self.direct: AsyncDnsClient = None
        self.public: AsyncDnsClient = None
        self.http: PooledHttpClient = None
        self.queries_retired = 0
        self.on_open = None        # traced run: wraps each new client
        self.vips: dict[str, tuple] = {}

    def clock(self) -> float:
        return self.completed * MODEL_SECONDS_PER_ITEM

    async def boot(self) -> "_Edge":
        # The estate's caches bind their instruments at construction.
        with use_registry(self.registry):
            self.cluster = ServeCluster(
                config=ClusterConfig(resolver_population="mixed"),
                clock=self.clock,
                metrics=self.registry,
                tracer=self.tracer,
            )
        await self.cluster.start(admin_port=None)
        self.direct = await self._open(self.cluster.dns.endpoint)
        self.public = await self._open(self.cluster.resolver_front.endpoint)
        self.http = PooledHttpClient(
            *self.cluster.http.endpoint, pool_size=CLIENTS, tracer=self.tracer
        )
        return self

    async def _open(self, endpoint) -> AsyncDnsClient:
        client = await AsyncDnsClient.open(
            *endpoint, metrics=self.registry, tracer=self.tracer
        )
        if self.on_open is not None:
            self.on_open(client)
        return client

    async def rotate(self, budget: int) -> None:
        """Reopen any DNS client that could reach the id wrap in ``budget``."""
        if self.direct.queries_sent + budget >= ROTATE_BEFORE_QUERIES:
            self.queries_retired += self.direct.queries_sent
            self.direct.close()
            self.direct = await self._open(self.cluster.dns.endpoint)
        if self.public.queries_sent + budget >= ROTATE_BEFORE_QUERIES:
            self.queries_retired += self.public.queries_sent
            self.public.close()
            self.public = await self._open(self.cluster.resolver_front.endpoint)

    @property
    def queries_sent(self) -> int:
        return (self.queries_retired + self.direct.queries_sent
                + self.public.queries_sent)

    def is_public(self, address: IPv4Address) -> bool:
        return stable_fraction("ledger-population", address) < 0.5

    def dns_for(self, address: IPv4Address) -> AsyncDnsClient:
        return self.public if self.is_public(address) else self.direct

    async def warm(self, workload: str) -> None:
        """One resolution per vantage: memoises zone routing and POPs.

        ``edge_http`` keeps the answers: its items fetch from the vips
        each vantage resolved here, never resolving again.
        """
        for vantage in self.cluster.directory.vantages:
            address = IPv4Address(vantage.prefix.network.value + 1)
            resolution = await self.dns_for(address).resolve(ENTRY, address)
            if not resolution.addresses:
                raise RuntimeError(f"warm-up for {vantage.name} got no A records")
            self.vips[vantage.name] = resolution.addresses
        if workload == "edge_http":
            status, _headers, length = await self.http.get(
                "/content/warm.ipsw", host=ENTRY,
                vip=next(iter(self.vips.values()))[0],
                client=IPv4Address.parse("100.64.0.1"), range_bytes=(0, 4095),
            )
            if status != 206 or length != 4096:
                raise RuntimeError(f"warm-up GET answered {status}/{length}")

    async def close(self) -> None:
        for client in (self.direct, self.public):
            if client is not None:
                client.close()
        if self.http is not None:
            await self.http.close()
        if self.cluster is not None:
            await self.cluster.stop()


# ----------------------------------------------------------------------
# items
# ----------------------------------------------------------------------


class _Tally:
    """Per-run item bookkeeping: latencies, failures, exact counts."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.failed = 0
        self.failures: list[str] = []
        self.hits = 0
        self.bytes = 0
        self.by_kind: dict[str, list[float]] = {}

    def fail(self, index: int, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"item {index}: {why}")


_CURRENT_ITEM: contextvars.ContextVar = contextvars.ContextVar("ledger_item", default=-1)


def _dns_item(edge: _Edge, base: int, tally: _Tally, spans):
    directory = edge.cluster.directory

    async def item(index: int) -> None:
        began = time.perf_counter()
        sampled = directory.sample(base + index)
        client = edge.dns_for(sampled.address)
        if spans is not None:
            _CURRENT_ITEM.set(index)
        t_resolve = time.perf_counter()
        try:
            resolution = await client.resolve(ENTRY, sampled.address)
        except Exception as exc:  # an item must fail alone, not the run
            tally.fail(index, f"{type(exc).__name__}: {exc}")
            resolution = None
        ended = time.perf_counter()
        if resolution is not None:
            if not resolution.addresses:
                tally.fail(index, f"empty A set at {resolution.final_name!r}")
            elif resolution.chain_names[0] != ENTRY:
                tally.fail(index, "chain does not start at the entry point")
        tally.latencies.append(ended - began)
        if spans is not None:
            kind = "public" if client is edge.public else "direct"
            tally.by_kind.setdefault(kind, []).append(ended - began)
            spans.add(index, "resolve", "item", t_resolve, ended)
            spans.add(index, "item", None, began, time.perf_counter())

    return item


def _http_item(edge: _Edge, base: int, tally: _Tally, spans):
    directory = edge.cluster.directory

    async def item(index: int) -> None:
        began = time.perf_counter()
        seq = base + index
        sampled = directory.sample(seq)
        vips = edge.vips[sampled.vantage.name]
        vip = vips[seq % len(vips)]
        draw = stable_fraction("ledger-object", seq)
        if draw < HEAD_SHARE:
            path = f"/content/ios11-model{int(draw / HEAD_SHARE * HEAD_OBJECTS)}.ipsw"
        else:
            path = f"/content/tail-{seq}.ipsw"
        size = RANGES[index % len(RANGES)]
        t_fetch = time.perf_counter()
        try:
            status, headers, length = await edge.http.get(
                path, host=ENTRY, vip=vip,
                client=sampled.address, range_bytes=(0, size - 1),
            )
        except Exception as exc:  # an item must fail alone, not the run
            tally.fail(index, f"{type(exc).__name__}: {exc}")
            status = None
        ended = time.perf_counter()
        if status is not None:
            if status != 206:
                tally.fail(index, f"status {status}")
            elif length != size:
                tally.fail(index, f"{length} body bytes, wanted {size}")
            else:
                tally.bytes += length
                if (headers.get("X-Cache") or "").startswith("hit"):
                    tally.hits += 1
        tally.latencies.append(ended - began)
        if spans is not None:
            tally.by_kind.setdefault(str(size), []).append(ended - began)
            spans.add(index, "fetch", "item", t_fetch, ended)
            spans.add(index, "item", None, began, time.perf_counter())

    return item


def _trace_queries(spans: Spans):
    """Wrap a client's public ``query`` so each hop leaves a span."""

    def install(client: AsyncDnsClient) -> None:
        inner = client.query

        async def query(name, address, *args, **kwargs):
            began = time.perf_counter()
            try:
                return await inner(name, address, *args, **kwargs)
            finally:
                spans.add(_CURRENT_ITEM.get(), "hop", "resolve",
                          began, time.perf_counter())

        client.query = query

    return install


async def _closed_loop(item, first: int, count: int, edge: _Edge = None) -> None:
    """``CLIENTS`` tasks, each issuing its next item when the last ends."""
    cursor = first
    stop = first + count

    async def client() -> None:
        nonlocal cursor
        while cursor < stop:
            index = cursor
            cursor += 1
            await item(index)
            if edge is not None:
                edge.completed += 1

    await asyncio.gather(*(client() for _ in range(CLIENTS)))


async def _run_blocks(edge: _Edge, item, tally: _Tally, items: int,
                      queries_per_block: int, speed: HostSpeed) -> list[dict]:
    """The timed region: ``BLOCKS`` equal-work blocks, one after another."""
    per_block = items // BLOCKS
    blocks = []
    for block in range(BLOCKS):
        await edge.rotate(queries_per_block)
        speed.sample()
        mark = len(tally.latencies)
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        await _closed_loop(item, block * per_block, per_block, edge)
        wall = time.perf_counter() - t0
        latencies = tally.latencies[mark:]
        blocks.append({
            "wall_ms_per_item": wall / per_block * 1e3,
            "cpu_ms_per_item": (cpu_seconds() - cpu0) / per_block * 1e3,
            "item_p50_ms": percentile(latencies, 0.50) * 1e3,
            "item_p90_ms": percentile(latencies, 0.90) * 1e3,
        })
    return blocks


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------


def run(workload: str, seed: int, scale: float, trace: bool,
        import_s: float = 0.0, overhead_probe: bool = True) -> Outcome:
    """Run one edge workload; returns its :class:`Outcome`."""
    outcome = asyncio.run(_run(workload, seed, scale, trace, import_s,
                               overhead_probe))
    if trace and workload == "edge_dns":
        # A blocking, forking API: measured with no event loop alive.
        outcome.layers.update(_fleet_rows())
    return outcome


async def _run(workload, seed, scale, trace, import_s, overhead_probe) -> Outcome:
    items = max(BLOCKS * 10, round(NOMINAL_ITEMS[workload] * scale / BLOCKS) * BLOCKS)
    base = _seq_base(seed)
    make_item = _dns_item if workload == "edge_dns" else _http_item
    # Six wire queries is above any chain the estate answers with.
    queries_per_block = (items // BLOCKS) * 6 if workload == "edge_dns" else 0

    untraced_prefix = None
    if trace and overhead_probe:
        untraced_prefix = await _prefix_wall(workload, make_item, base, items)

    registry = MetricsRegistry() if trace else NULL_REGISTRY
    spans = Spans() if trace else None

    setup_samples = []
    edge = None
    for _ in range(1 if trace else _SETUP_REPEATS):
        if edge is not None:
            await edge.close()
        started = time.perf_counter()
        edge = _Edge(registry)
        if spans is not None:
            edge.on_open = _trace_queries(spans)
        await edge.boot()
        await edge.warm(workload)
        setup_samples.append(time.perf_counter() - started)
    gc.collect()
    setup_s = import_s + statistics.median(setup_samples)

    try:
        tally = _Tally()
        item = make_item(edge, base, tally, spans)
        setup_queries = edge.queries_sent
        speed = HostSpeed()
        t0 = time.perf_counter()
        blocks = await _run_blocks(
            edge, item, tally, items, queries_per_block, speed
        )
        timed_wall = time.perf_counter() - t0 - speed.wall
        speed.sample()
        speed.close()

        raw = {}
        block_spread = {}
        for name in ("wall_ms_per_item", "cpu_ms_per_item",
                     "item_p50_ms", "item_p90_ms"):
            values = [block[name] for block in blocks]
            raw[name] = statistics.median(values)
            block_spread[name] = spread(values)
            block_spread[name + ".blocks"] = values
        correction = speed.correction()
        e2e = {name: value * correction for name, value in raw.items()}
        e2e["setup_s"] = setup_s
        e2e["peak_rss_mb"] = peak_rss_mb()

        front = edge.cluster.resolver_front.cache_stats()
        exact = {
            "items": items,
            "dns_queries": edge.queries_sent - setup_queries,
            "front_hits": front["hits"],
            "front_misses": front["misses"],
            "cache_hits": tally.hits,
            "body_bytes": tally.bytes,
        }
        outcome = Outcome(
            workload=workload,
            attempted=items,
            failed=tally.failed,
            e2e=e2e,
            exact=exact,
            inputs=blake2b(
                repr([str(edge.cluster.directory.sample(base + i).address)
                      for i in range(8)]).encode(), digest_size=8
            ).hexdigest(),
            raw=raw,
            block_spread=block_spread,
            host_speed=speed.summary(),
            failures=tally.failures,
        )
        if trace:
            outcome.layers = await _layers(
                workload, edge, registry, spans, tally, item, items,
                timed_wall, exact["dns_queries"], blocks, untraced_prefix,
            )
        return outcome
    finally:
        await edge.close()


async def _prefix_wall(workload, make_item, base, items) -> tuple[int, float]:
    """Untraced wall of the first quarter of the blocks (tracing tax base)."""
    prefix_blocks = max(1, BLOCKS // 4)
    edge = await _Edge(NULL_REGISTRY).boot()
    try:
        await edge.warm(workload)
        tally = _Tally()
        item = make_item(edge, base, tally, None)
        per_block = items // BLOCKS
        t0 = time.perf_counter()
        for block in range(prefix_blocks):
            await _closed_loop(item, block * per_block, per_block, edge)
        return prefix_blocks, time.perf_counter() - t0
    finally:
        await edge.close()


# ----------------------------------------------------------------------
# traced run: per-layer rows
# ----------------------------------------------------------------------


def _mean_us(call, repeats: int) -> float:
    began = time.perf_counter()
    for _ in range(repeats):
        call()
    return (time.perf_counter() - began) / repeats * 1e6


def _histogram_mean_us(registry, name: str) -> float:
    family = registry.get(name)
    if family is None:
        return 0.0
    total = count = 0.0
    for _labels, child in family.children():
        total += child.sum
        count += child.count
    return total / count * 1e6 if count else 0.0


async def _layers(workload, edge, registry, spans, tally, item, items,
                  timed_wall, timed_queries, blocks, untraced_prefix) -> dict:
    layers: dict = {}
    layers["latency.item_p99_ms"] = percentile(tally.latencies, 0.99) * 1e3
    layers["latency.item_p999_ms"] = percentile(tally.latencies, 0.999) * 1e3
    layers["bench.trace_coverage"] = spans.coverage("item")
    layers["serve.loadgen.queries_per_item"] = timed_queries / items
    if untraced_prefix is not None:
        prefix_blocks, untraced_wall = untraced_prefix
        per_block = items // BLOCKS
        traced_wall = sum(
            block["wall_ms_per_item"] for block in blocks[:prefix_blocks]
        ) * per_block / 1e3
        layers["bench.trace_overhead_pct"] = (
            (traced_wall / untraced_wall - 1.0) * 100.0 if untraced_wall else 0.0
        )
    began = time.perf_counter()
    registry.snapshot()
    layers["obs.registry.snapshot_ms"] = (time.perf_counter() - began) * 1e3

    if workload == "edge_dns":
        front = edge.cluster.resolver_front.cache_stats()
        lookups = front["hits"] + front["misses"]
        layers["serve.resolverfront.hit_ratio"] = (
            front["hits"] / lookups if lookups else 0.0
        )
        layers["serve.resolverfront.upstream_queries"] = counter_total(
            registry, "resolver_front_upstream_total"
        )
        layers["serve.resolverfront.item_ms_public"] = (
            statistics.median(tally.by_kind["public"]) * 1e3
        )
        layers["serve.dnsserver.item_ms_direct"] = (
            statistics.median(tally.by_kind["direct"]) * 1e3
        )
        layers.update(_dns_path_timings(edge))
    else:
        for size, label in zip(RANGES, ("4k", "64k", "256k")):
            layers[f"serve.httpserver.item_ms_{label}"] = (
                statistics.median(tally.by_kind[str(size)]) * 1e3
            )
        layers["serve.httpserver.handle_us"] = _histogram_mean_us(
            registry, "serve_http_handle_seconds"
        )
        hits = misses = 0.0
        family = registry.get("cache_requests_total")
        if family is not None:
            for labels, child in family.children():
                if labels[-1] == "hit":
                    hits += child.value
                else:
                    misses += child.value
        layers["cdn.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        layers["serve.httpserver.route_us"] = _route_timing(edge)

    spans.dump(OUT_DIR / f"trace-{workload}.jsonl")

    # ---- the client's own cost: same driver, null responder ----------
    null_items = max(200, items // 40)
    layers["serve.loadgen.null_us_per_item"] = await _null_calibration(
        workload, edge, null_items
    )

    # ---- open loop at a quarter of the measured closed-loop rate -----
    closed_rate = items / timed_wall
    await edge.rotate(ROTATE_BEFORE_QUERIES)   # fresh ids: 64 in flight
    layers.update(await _open_loop(item, items, closed_rate))

    if workload == "edge_dns":
        layers.update(await _generator_rows(edge))
    return layers


def _walk_chain(dns, address: IPv4Address):
    """Chase ``ENTRY`` for ``address`` through ``handle_datagram``.

    Yields ``(name, query payload, raw reply)`` per hop — the wire
    bytes a client at ``address`` would exchange, without a socket.
    """
    name = ENTRY
    for _hop in range(8):
        payload = encode_message(WireMessage(
            message_id=1,
            questions=[Question(name, RecordType.A)],
            client_subnet=ClientSubnet(IPv4Prefix.containing(address, 24)),
        ))
        raw = dns.handle_datagram(payload)
        yield name, payload, raw
        answers = decode_message(raw).answers
        cnames = [r for r in answers if r.rtype is RecordType.CNAME]
        if any(r.rtype is RecordType.A for r in answers) or not cnames:
            return
        name = cnames[0].target


def _dns_path_timings(edge: _Edge) -> dict:
    """decode -> directory -> policy -> encode, one public call each."""
    dns = edge.cluster.dns
    directory = edge.cluster.directory
    samples = []
    for vantage in directory.vantages[:4]:
        address = IPv4Address(vantage.prefix.network.value + 1)
        for name, payload, raw in _walk_chain(dns, address):
            samples.append((name, address, payload, decode_message(raw)))
    repeats = 100
    rows = {"decode": [], "encode": [], "handle": [], "context": [], "answer": []}
    for name, address, payload, reply in samples:
        rows["decode"].append(_mean_us(lambda: decode_message(payload), repeats))
        rows["encode"].append(_mean_us(lambda: encode_message(reply), repeats))
        rows["handle"].append(_mean_us(lambda: dns.handle_datagram(payload), repeats))
        now = edge.clock()
        rows["context"].append(
            _mean_us(lambda: directory.context_for(address, now), repeats)
        )
        server = dns.frontend.server_for(name)
        context = directory.context_for(address, now)
        question = Question(name, RecordType.A)
        rows["answer"].append(
            _mean_us(lambda: server.query(question, context), repeats)
        )
    return {
        "dns.wire.decode_us": statistics.mean(rows["decode"]),
        "dns.wire.encode_us": statistics.mean(rows["encode"]),
        "serve.dnsserver.handle_us": statistics.mean(rows["handle"]),
        "serve.clients.context_us": statistics.mean(rows["context"]),
        "dns.policies.answer_us": statistics.mean(rows["answer"]),
    }


def _route_timing(edge: _Edge) -> float:
    """``estate_router`` on warm objects (after the counts are taken)."""
    route = estate_router(edge.cluster.estate)
    size = edge.cluster.config.object_size
    samples = []
    for vips in edge.vips.values():
        request = HttpRequest(
            method="GET", host=ENTRY, path="/content/ios11-model0.ipsw",
            headers=Headers({"X-Client": "100.64.0.1"}),
        )
        route(vips[0], request, size)
        samples.append(_mean_us(lambda: route(vips[0], request, size), 50))
    return statistics.mean(samples)


class _NullDns(asyncio.DatagramProtocol):
    """Answers any query for a recorded name with its canned reply."""

    def __init__(self, canned: dict) -> None:
        self.canned = canned
        self.transport = None

    def connection_made(self, transport) -> None:
        self.transport = transport

    def datagram_received(self, data: bytes, addr) -> None:
        end = data.index(0, 12) + 5
        body = self.canned.get(data[12:end])
        if body is not None:
            self.transport.sendto(data[:2] + body, addr)


async def _null_http(reader, writer) -> None:
    """Reads a request head, answers 206 with the asked number of zeros."""
    try:
        while True:
            head = await reader.readuntil(b"\r\n\r\n")
            marker = head.index(b"Range: bytes=0-") + 15
            length = int(head[marker:head.index(b"\r\n", marker)]) + 1
            writer.write(
                b"HTTP/1.1 206 Partial Content\r\nContent-Length: %d\r\n"
                b"Connection: keep-alive\r\n\r\n" % length + bytes(length)
            )
            await writer.drain()
    except (asyncio.IncompleteReadError, ConnectionError):
        pass
    finally:
        writer.close()


async def _null_calibration(workload: str, edge: _Edge, count: int) -> float:
    """Per-item wall of the thin driver against a responder that does nothing."""
    loop = asyncio.get_running_loop()
    address = IPv4Address.parse("100.64.0.1")
    if workload == "edge_dns":
        canned = {
            payload[12:payload.index(0, 12) + 5]: raw[2:]
            for _name, payload, raw in _walk_chain(edge.cluster.dns, address)
        }
        transport, _ = await loop.create_datagram_endpoint(
            lambda: _NullDns(canned), local_addr=("127.0.0.1", 0)
        )
        client = await AsyncDnsClient.open(*transport.get_extra_info("sockname")[:2])

        async def item(_index: int) -> None:
            resolution = await client.resolve(ENTRY, address)
            if not resolution.addresses:
                raise RuntimeError("null responder chain ended without A records")

        try:
            began = time.perf_counter()
            await _closed_loop(item, 0, count)
            return (time.perf_counter() - began) / count * 1e6
        finally:
            client.close()
            transport.close()
    server = await asyncio.start_server(_null_http, "127.0.0.1", 0)
    http = PooledHttpClient(*server.sockets[0].getsockname()[:2], pool_size=CLIENTS)

    async def item(index: int) -> None:
        size = RANGES[index % len(RANGES)]
        status, _headers, length = await http.get(
            "/content/null.ipsw", host=ENTRY, vip=address, client=address,
            range_bytes=(0, size - 1),
        )
        if status != 206 or length != size:
            raise RuntimeError(f"null responder answered {status}/{length}")

    try:
        began = time.perf_counter()
        await _closed_loop(item, 0, count)
        return (time.perf_counter() - began) / count * 1e6
    finally:
        await http.close()
        server.close()
        await server.wait_closed()


async def _open_loop(item, items: int, closed_rate: float) -> dict:
    """Flash-crowd arrivals at a quarter of the closed-loop rate.

    Each item is timed from its *scheduled* arrival, so a stall charges
    every arrival queued behind it; arrivals past the in-flight cap are
    shed and counted, never queued.
    """
    duration = min(4.0, max(1.0, items / closed_rate * 0.15))
    total = max(50, int(closed_rate * _OPEN_LOOP_SHARE * duration))
    schedule = ArrivalSchedule.flash_crowd(total, duration)
    latencies: list[float] = []
    lateness: list[float] = []
    tasks: set = set()
    shed = 0
    t0 = time.perf_counter()

    async def arrival(index: int, due: float) -> None:
        await item(items + index)
        latencies.append(time.perf_counter() - t0 - due)

    for seq, due, _region in schedule.events():
        delay = due - (time.perf_counter() - t0)
        if delay > 0.0:
            await asyncio.sleep(delay)
        lateness.append(max(0.0, time.perf_counter() - t0 - due))
        if len(tasks) >= _OPEN_LOOP_CAP:
            shed += 1
            continue
        task = asyncio.create_task(arrival(seq, due))
        tasks.add(task)
        task.add_done_callback(tasks.discard)
    if tasks:
        await asyncio.gather(*tasks)
    return {
        "serve.loadgen.open.item_p50_ms": percentile(latencies, 0.50) * 1e3,
        "serve.loadgen.open.item_p99_ms": percentile(latencies, 0.99) * 1e3,
        "serve.loadgen.open.lateness_p99_ms": percentile(lateness, 0.99) * 1e3,
        "serve.loadgen.open.shed": float(shed),
    }


async def _generator_rows(edge: _Edge) -> dict:
    """``LoadGenerator.run`` against the thin driver, and the tracer's tax.

    Three interleaved rounds of (thin driver, ``LoadGenerator``,
    ``LoadGenerator`` under an ``EventTracer``), medians compared: one
    round of each, back to back, differs by more host noise than the
    generator costs.
    """
    requests = 400
    config = LoadConfig(
        requests=requests, concurrency=CLIENTS, hedge=None,
        public_resolver_share=0.5,
    )
    directory = edge.cluster.directory
    share = config.public_resolver_share

    async def thin(seq: int) -> None:
        sampled = directory.sample(seq)
        public = stable_fraction("resolver-population", seq) < share
        client = edge.public if public else edge.direct
        resolution = await client.resolve(ENTRY, sampled.address)
        vip = resolution.addresses[seq % len(resolution.addresses)]
        status, _headers, _length = await edge.http.get(
            f"/content/ios11-part{seq % config.object_count:03d}.ipsw",
            host=ENTRY, vip=vip, client=sampled.address,
            range_bytes=(0, config.range_bytes - 1),
        )
        if status != 206:
            raise RuntimeError(f"thin driver GET answered {status}")

    async def generated(target: _Edge) -> float:
        report = await target.cluster.drive(config)
        if not report.healthy():
            raise RuntimeError(f"LoadGenerator run failed: {report.error_samples}")
        return report.elapsed_seconds / requests * 1e6

    await edge.rotate(4 * requests * 6)
    traced = await _Edge(MetricsRegistry(), tracer=EventTracer()).boot()
    try:
        # One pass each warms the 32 objects on both clusters.
        await _closed_loop(thin, 0, requests)
        await generated(traced)
        thin_us, generator_us, traced_us = [], [], []
        for _round in range(3):
            began = time.perf_counter()
            await _closed_loop(thin, 0, requests)
            thin_us.append((time.perf_counter() - began) / requests * 1e6)
            generator_us.append(await generated(edge))
            traced_us.append(await generated(traced))
    finally:
        await traced.close()
    return {
        "serve.loadgen.generator_overhead_us": (
            statistics.median(generator_us) - statistics.median(thin_us)
        ),
        "obs.tracer.item_ratio": (
            statistics.median(traced_us) / statistics.median(generator_us)
        ),
    }


def _fleet_rows() -> dict:
    """Fleet boot, snapshot container and metric-merge cost (ungated).

    The fleet forks ``min(2, nproc)`` workers and is always torn down.
    """
    directory = scratch_dir("fleet")
    try:
        fleet = ServeFleet(FleetConfig(
            workers=CLIENTS, snapshot_dir=str(directory), metrics_interval=0.1,
        ))
        began = time.perf_counter()
        fleet.start()
        boot_s = time.perf_counter() - began
        try:
            time.sleep(0.4)      # let each worker stream a metrics snapshot
            began = time.perf_counter()
            fleet.merged_registry()
            merge_ms = (time.perf_counter() - began) * 1e3
            spec = fleet.spec
        finally:
            fleet.stop()
        path = str(directory / "ledger.rsnap")
        began = time.perf_counter()
        write_snapshot(path, spec)
        write_ms = (time.perf_counter() - began) * 1e3
        began = time.perf_counter()
        load_snapshot(path).close()
        load_ms = (time.perf_counter() - began) * 1e3
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {
        "serve.fleet.boot_s": boot_s,
        "serve.fleet.metrics_merge_ms": merge_ms,
        "serve.snapshot.write_ms": write_ms,
        "serve.snapshot.load_ms": load_ms,
    }
