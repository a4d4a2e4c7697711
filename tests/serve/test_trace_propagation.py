"""End-to-end trace propagation through the live cluster.

The acceptance bar: after a traced load run, at least 99% of completed
HTTP fetches must link back — via wire-carried context, not in-process
ambient state — to the steering DNS resolution span of the same
logical request.
"""

import asyncio

from repro.obs import EventTracer, MetricsRegistry, use_registry
from repro.obs.trace_context import assemble_chains
from repro.serve import (
    ClientDirectory,
    ClusterConfig,
    LoadConfig,
    ServeCluster,
    build_serve_estate,
)


def _traced_run(requests=200, trace_sample=1.0, clock=None):
    registry = MetricsRegistry()
    tracer = EventTracer()
    with use_registry(registry):
        estate = build_serve_estate(ClusterConfig(servers_per_metro=4))
        cluster = ServeCluster(
            estate=estate,
            directory=ClientDirectory.from_adoption(),
            metrics=registry,
            tracer=tracer,
            clock=clock,
        )

        async def scenario():
            async with cluster:
                return await cluster.drive(LoadConfig(
                    requests=requests,
                    concurrency=16,
                    trace_sample=trace_sample,
                ))

        report = asyncio.run(scenario())
    return report, tracer


def complete_chains(tracer):
    """The chains whose root span has closed."""
    return [chain for chain in assemble_chains(tracer.records()) if chain.complete]


class TestCausalChains:
    def test_fetches_link_back_to_dns_resolution(self):
        report, tracer = _traced_run(requests=200)
        chains = complete_chains(tracer)
        assert len(chains) >= 198  # >= 99% of 200 logical requests

        linked = 0
        fetches = 0
        for chain in chains:
            resolve = chain.named("client.resolve")
            dns = chain.named("serve.dns.query")
            fetch = chain.named("client.fetch")
            http = chain.named("serve.http.request")
            assert resolve is not None and dns is not None
            # The server-side DNS span adopted the wire-carried context:
            # same trace, parented under the client's resolve span.
            assert dns.trace_id == chain.trace_id
            assert dns.parent_id == resolve.span_id
            if fetch is None:
                continue
            fetches += 1
            if (
                http is not None
                and http.trace_id == chain.trace_id
                and http.parent_id == fetch.span_id
            ):
                linked += 1
        assert fetches >= 198
        assert linked / fetches >= 0.99

    def test_chain_roots_are_client_requests(self):
        _, tracer = _traced_run(requests=50)
        for chain in complete_chains(tracer):
            root = chain.named("client.request")
            assert root is not None
            assert root.parent_id is None
            # Every other span in the chain descends from the root.
            for span in chain.spans:
                if span is root:
                    continue
                assert span.trace_id == root.trace_id

    def test_distinct_requests_get_distinct_traces(self):
        _, tracer = _traced_run(requests=50)
        chains = complete_chains(tracer)
        trace_ids = [chain.trace_id for chain in chains]
        assert len(set(trace_ids)) == len(trace_ids)


class TestSampling:
    def test_zero_rate_emits_nothing_but_counts_drops(self):
        report, tracer = _traced_run(requests=50, trace_sample=0.0)
        assert report.ok == 50  # load still flows untraced
        assert tracer.records() == ()
        assert tracer.stats()["sampled_out"] > 0

    def test_partial_rate_keeps_chains_whole(self):
        # Sampling is per-trace, decided once at the loadgen: a kept
        # trace keeps ALL its spans (client and server side), a dropped
        # trace keeps none.  No torso chains.
        _, tracer = _traced_run(requests=200, trace_sample=0.3)
        chains = assemble_chains(tracer.records())
        assert 0 < len(chains) < 200
        for chain in chains:
            names = {span.name for span in chain.spans}
            assert "client.request" in names
            assert "serve.dns.query" in names


class TestOneClock:
    def test_every_server_span_reads_the_cluster_clock(self):
        # Both servers stamp their spans off the cluster's one clock: a
        # chain's DNS and HTTP spans agree under a pinned (or virtual)
        # clock instead of the HTTP edge keeping wall seconds of its own.
        report, tracer = _traced_run(requests=20, clock=lambda: 42.0)
        assert report.ok == 20
        served = [r for r in tracer.records() if r.name.startswith("serve.")]
        assert {r.name for r in served} == {
            "serve.dns.query", "serve.http.request",
        }
        assert {r.ts for r in served} == {42.0}
