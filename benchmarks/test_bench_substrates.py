"""Substrate performance benchmarks.

Not a paper figure: these guard the hot paths the figure benches rely
on — longest-prefix match, full recursive resolution, the LRU content
cache and edge-site serving.
"""

from repro.cdn.cache import ContentCache
from repro.dns.query import QueryContext
from repro.http.messages import Headers, HttpRequest
from repro.net.geo import Continent, Coordinates
from repro.net.ipv4 import IPv4Address, IPv4Prefix
from repro.net.trie import PrefixTrie


def test_bench_trie_lookup(benchmark):
    trie = PrefixTrie()
    for index in range(4096):
        prefix = IPv4Prefix.containing(IPv4Address(index << 20), 12)
        trie.insert(prefix, index)
    probes = [IPv4Address((i * 2654435761) & 0xFFFFFFFF) for i in range(1000)]

    def lookup():
        return [trie.lookup(address) for address in probes]

    results = benchmark(lookup)
    assert len(results) == 1000


def test_bench_recursive_resolution(benchmark, bench_run):
    scenario = bench_run
    estate = scenario.estate
    context = QueryContext(
        client=IPv4Address.parse("198.51.100.77"),
        coordinates=Coordinates(50.11, 8.68),
        continent=Continent.EUROPE,
        country="de",
        now=0.0,
    )

    def resolve():
        return estate.resolver(cache=False).resolve(
            estate.names.entry_point, context
        )

    resolution = benchmark(resolve)
    assert resolution.succeeded()


def test_bench_content_cache(benchmark):
    cache = ContentCache(capacity_bytes=1 << 30)

    def churn():
        for index in range(2000):
            cache.admit(f"object-{index % 600}", 2 << 20)
            cache.lookup(f"object-{(index * 7) % 600}")
        return cache.stats.requests

    requests = benchmark(churn)
    assert requests > 0


def test_bench_edge_site_serving(benchmark, bench_run):
    scenario = bench_run
    apple = scenario.estate.apple
    site = apple.sites[0]
    vip = site.vip_addresses[0]

    def serve_batch():
        for index in range(100):
            request = HttpRequest(
                "GET",
                "appldnld.apple.com",
                f"/bench/object{index % 20}.ipsw",
                headers=Headers({"X-Client": f"198.51.7.{index % 250}"}),
            )
            apple.serve(vip, request, size=1_000_000)

    benchmark(serve_batch)
