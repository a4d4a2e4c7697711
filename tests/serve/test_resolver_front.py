"""The public-resolver front: shared POP caches over real sockets.

Boots a :class:`~repro.serve.cluster.ServeCluster` with a public
resolver population (clock pinned, so steering answers are
deterministic) and checks the front end to end: ECS-on equivalence
with the direct authoritative path, honest-scope cache sharing across
/24s of one vantage, ECS-off dilution to one entry per POP, and the
selftest surface that guards it all.
"""

import asyncio

import pytest

from repro.dns.records import ARecord
from repro.dns.wire import ClientSubnet, WireMessage, decode_message, encode_message
from repro.net.ipv4 import IPv4Address
from repro.obs import MetricsRegistry, use_registry
from repro.serve import (
    ClusterConfig,
    LoadConfig,
    PublicResolverFront,
    SelftestReport,
    ServeCluster,
)
from repro.resolver import is_public_client
from repro.serve.loadgen import AsyncDnsClient, LoadGenerator
from repro.serve.udp import open_udp

ENTRY = "appldnld.apple.com"

DE_CLIENT = IPv4Address.parse("100.64.7.9")     # de-frankfurt vantage
DE_SIBLING = IPv4Address.parse("100.64.9.77")   # same /16, different /24
AU_CLIENT = IPv4Address.parse("100.72.3.5")     # au-sydney vantage
# Every client behind the public-resolver front.
EVERY_CLIENT_PUBLIC = {"resolver_population": "mixed", "public_resolver_share": 1.0}


def run_cluster(test, **config_kwargs):
    """Boot a pinned-clock cluster, run ``test(cluster)`` inside it."""
    registry = MetricsRegistry()

    async def _run():
        cluster = ServeCluster(
            config=ClusterConfig(**config_kwargs),
            clock=lambda: 0.0,
            metrics=registry,
        )
        async with cluster:
            return await test(cluster)

    with use_registry(registry):
        result = asyncio.run(_run())
    return result, registry


class TestEcsOnFront:
    def test_front_matches_direct_path_and_keeps_steering(self):
        async def scenario(cluster):
            front = await AsyncDnsClient.open(*cluster.resolver_front.endpoint)
            direct = await AsyncDnsClient.open(*cluster.dns.endpoint)
            try:
                results = {}
                for label, client in (("de", DE_CLIENT), ("au", AU_CLIENT)):
                    via_front = await front.resolve(ENTRY, client)
                    via_direct = await direct.resolve(ENTRY, client)
                    assert via_front.chain_names == via_direct.chain_names
                    assert via_front.addresses == via_direct.addresses
                    results[label] = via_front.addresses
                return results
            finally:
                front.close()
                direct.close()

        results, _ = run_cluster(scenario, **EVERY_CLIENT_PUBLIC)
        # Steering must survive the shared cache: the two geographies
        # are answered from different partitions.
        assert results["de"] != results["au"]

    def test_honest_scope_shares_entries_across_24s(self):
        async def scenario(cluster):
            front = await AsyncDnsClient.open(*cluster.resolver_front.endpoint)
            try:
                await front.resolve(ENTRY, DE_CLIENT)
                warm = cluster.resolver_front.cache_stats()
                await front.resolve(ENTRY, DE_SIBLING)
                after = cluster.resolver_front.cache_stats()
            finally:
                front.close()
            return warm, after

        (warm, after), _ = run_cluster(scenario, **EVERY_CLIENT_PUBLIC)
        # The authoritative echoes scope /16 (the vantage granularity),
        # so the sibling /24 hits every entry the first client warmed —
        # zero extra misses, zero extra entries.
        assert after["misses"] == warm["misses"]
        assert after["size"] == warm["size"]
        assert after["hits"] > warm["hits"]

    def test_repeat_chain_is_all_hits(self):
        async def scenario(cluster):
            front = await AsyncDnsClient.open(*cluster.resolver_front.endpoint)
            try:
                await front.resolve(ENTRY, DE_CLIENT)
                warm = cluster.resolver_front.cache_stats()
                await front.resolve(ENTRY, DE_CLIENT)
                after = cluster.resolver_front.cache_stats()
            finally:
                front.close()
            return warm, after

        (warm, after), _ = run_cluster(scenario, **EVERY_CLIENT_PUBLIC)
        assert after["misses"] == warm["misses"]
        assert after["hits"] > warm["hits"]


class TestEcsOffFront:
    def test_pop_clients_share_one_entry_per_name(self):
        async def scenario(cluster):
            front = await AsyncDnsClient.open(*cluster.resolver_front.endpoint)
            try:
                first = await front.resolve(ENTRY, DE_CLIENT)
                warm = cluster.resolver_front.cache_stats()
                second = await front.resolve(ENTRY, DE_SIBLING)
                after = cluster.resolver_front.cache_stats()
            finally:
                front.close()
            return first, second, warm, after

        (first, second, warm, after), _ = run_cluster(
            scenario,
            **EVERY_CLIENT_PUBLIC,
            public_resolver_ecs=False,
        )
        # Without ECS the POP's anchor is the only identity upstream:
        # both clients share one entry per name and the same answers.
        assert second.addresses == first.addresses
        assert after["misses"] == warm["misses"]
        assert after["size"] == warm["size"]


class TestInlineHitPath:
    """A cache hit is answered inside the receive callback, task-free."""

    NAMES = [f"n{index}.front.example" for index in range(3)]

    @staticmethod
    def _authority(gate=None):
        """A canned upstream: one A record per name, scope /16 echoed."""

        class Authority(asyncio.DatagramProtocol):
            queries = 0

            def connection_made(self, transport):
                self.transport = transport

            def datagram_received(self, data, addr):
                Authority.queries += 1
                query = decode_message(data)
                name = query.questions[0].name
                reply = encode_message(WireMessage(
                    message_id=query.message_id, is_response=True,
                    authoritative=True, questions=query.questions[:1],
                    answers=[ARecord(name, IPv4Address.parse("17.0.0.1"), 15)],
                    client_subnet=ClientSubnet(
                        query.client_subnet.prefix, scope_length=16
                    ),
                ))
                if gate is None:
                    self.transport.sendto(reply, addr)
                else:
                    gate.add_done_callback(
                        lambda _gate: self.transport.sendto(reply, addr)
                    )

        return Authority

    def _run(self, body, front_class=PublicResolverFront, gated=False):
        """``body(front, client, authority, gate)`` against a canned upstream."""

        async def scenario():
            gate = asyncio.get_running_loop().create_future() if gated else None
            authority = self._authority(gate)
            upstream, _ = await open_udp(authority, local_addr=("127.0.0.1", 0))
            registry = MetricsRegistry()
            front = front_class(metrics=registry, clock=lambda: 0.0)
            await front.start(upstream.get_extra_info("sockname")[:2])
            client = await AsyncDnsClient.open(*front.endpoint)
            try:
                result = await body(front, client, authority, gate)
            finally:
                client.close()
                await front.stop()
                upstream.close()
            return result, registry

        return asyncio.run(scenario())

    def test_a_hit_creates_no_task(self):
        async def body(front, client, authority, _gate):
            await client.query(self.NAMES[0], DE_CLIENT)   # the miss
            assert authority.queries == 1
            before = asyncio.all_tasks()
            created = []
            loop = asyncio.get_running_loop()
            loop.set_task_factory(
                lambda loop, coro, **kw: created.append(coro) or asyncio.Task(
                    coro, loop=loop, **kw
                )
            )
            try:
                for client_address in (DE_CLIENT, DE_SIBLING, DE_CLIENT):
                    reply = await client.query(self.NAMES[0], client_address)
                    assert [str(r.address) for r in reply.answers] == ["17.0.0.1"]
                    assert not front._tasks
            finally:
                loop.set_task_factory(None)
            assert not created and asyncio.all_tasks() == before
            assert authority.queries == 1
            return front.cache_stats()

        stats, _ = self._run(body)
        assert (stats["hits"], stats["misses"]) == (3, 1)

    def test_concurrent_misses_still_coalesce_onto_one_fetch(self):
        async def body(front, client, authority, gate):
            lookups = [
                asyncio.ensure_future(client.query(self.NAMES[0], address))
                for address in (DE_CLIENT, DE_CLIENT, DE_CLIENT)
            ]
            while len(front._tasks) < 3:   # all three are waiting misses
                await asyncio.sleep(0.005)
            assert authority.queries == 1 and len(front._inflight) == 1
            gate.set_result(None)
            replies = await asyncio.gather(*lookups)
            assert len({reply.message_id for reply in replies}) == 3
            assert all(len(reply.answers) == 1 for reply in replies)
            while front._tasks:            # the miss tasks wind down
                await asyncio.sleep(0.005)
            return front.cache_stats(), authority.queries

        (stats, upstream), _ = self._run(body, gated=True)
        assert upstream == 1
        assert (stats["hits"], stats["misses"]) == (0, 3)

    def test_counters_match_the_all_task_path_on_the_same_sequence(self):
        class TaskPerQueryFront(PublicResolverFront):
            """The reference: every datagram becomes a task that looks up."""

            def _dispatch(self, data, addr):
                query = decode_message(data)
                client = query.client_subnet.prefix.network
                pop = self._pop_for(client)
                self._m_queries.labels(pop.pop_id).inc()
                announced, _length = self._announced(client, pop)
                task = asyncio.ensure_future(
                    self._serve_miss(query, data, addr, pop, announced)
                )
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)

        sequence = [
            (self.NAMES[index % 3], address)
            for index, address in enumerate(
                [DE_CLIENT, DE_CLIENT, DE_SIBLING, AU_CLIENT, DE_CLIENT,
                 AU_CLIENT, DE_SIBLING, AU_CLIENT, DE_CLIENT, DE_CLIENT,
                 AU_CLIENT, DE_SIBLING]
            )
        ]

        async def body(front, client, authority, _gate):
            answers = []
            for name, address in sequence:
                reply = await client.query(name, address)
                answers.append((
                    reply.rcode, tuple(reply.answers),
                    reply.client_subnet, reply.recursion_available,
                ))
            return answers, front.cache_stats(), authority.queries

        def counters(registry):
            return registry.snapshot([
                "resolver_front_queries_total",
                "resolver_front_cache_total",
                "resolver_front_upstream_total",
            ])

        inline, inline_registry = self._run(body)
        reference, reference_registry = self._run(body, TaskPerQueryFront)
        assert inline == reference
        assert counters(inline_registry) == counters(reference_registry)
        _answers, stats, upstream = inline
        assert stats["hits"] + stats["misses"] == len(sequence)
        assert upstream == stats["misses"] > 0 and stats["hits"] > 0


class TestDriveAndSelftest:
    def test_mixed_drive_populates_dilution_metrics(self):
        async def scenario(cluster):
            report = await cluster.drive(
                LoadConfig(requests=120, concurrency=8)
            )
            return report, cluster.resolver_front.cache_stats()

        (report, stats), registry = run_cluster(
            scenario,
            resolver_population="mixed",
            public_resolver_share=0.5,
        )
        assert report.errors == 0
        assert stats["hits"] + stats["misses"] > 0
        checks = dict(SelftestReport(report, registry).checks(qps_floor=0.0))
        assert checks["public-resolver cache-dilution metrics present"]

    def test_explicit_zero_share_means_no_public_clients(self):
        # 0.0 is a share like any other, not "the cluster's": only an
        # unset share (None) takes the mixed cluster's 0.5.
        async def scenario(cluster):
            report = await cluster.drive(LoadConfig(
                requests=60, concurrency=8, public_resolver_share=0.0,
            ))
            return report, cluster.resolver_front.cache_stats()

        (report, stats), _registry = run_cluster(
            scenario,
            resolver_population="mixed",
            public_resolver_share=0.5,
        )
        assert report.errors == 0
        assert stats["hits"] + stats["misses"] == 0

    def test_isp_population_boots_no_front(self):
        async def scenario(cluster):
            return cluster.resolver_front

        front, registry = run_cluster(scenario, resolver_population="isp")
        assert front is None
        labels = [
            label for label, _ in SelftestReport(
                _dummy_report(), registry
            ).checks(qps_floor=0.0)
        ]
        assert "public-resolver cache-dilution metrics present" not in labels


def _dummy_report():
    from repro.serve.loadgen import LoadReport

    return LoadReport(
        requests=1, ok=1, errors=0, elapsed_seconds=1.0, dns_queries=1,
        dns_timeouts=0, tcp_fallbacks=0, body_bytes=1,
    )


class TestConfigValidation:
    def test_bad_population_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(resolver_population="open")

    def test_bad_share_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(resolver_population="mixed", public_resolver_share=1.5)

    @pytest.mark.parametrize("bad, message", [
        ({"resolver_population": "open"},
         "unknown resolver population 'open' (valid: isp, mixed)"),
        ({"resolver_population": "mixed", "public_resolver_share": 1.5},
         "public_resolver_share must be within [0, 1]"),
        ({"resolver_population": "public"},
         "unknown resolver population 'public' (valid: isp, mixed)"),
        ({"resolver_population": "mixed", "public_resolver_scope": 40},
         "public_resolver_scope must be within [0, 32]"),
    ])
    def test_cluster_refuses_each_bad_population(self, bad, message):
        with pytest.raises(ValueError) as refused:
            ClusterConfig(**bad)
        assert str(refused.value) == message

    def test_bad_loadgen_share_rejected(self):
        with pytest.raises(ValueError):
            LoadConfig(public_resolver_share=-0.1)

    def test_front_validation(self):
        with pytest.raises(ValueError):
            PublicResolverFront(scope=40)

    def test_loadgen_share_derivation(self):
        assert ClusterConfig().loadgen_resolver_share == 0.0
        assert ClusterConfig(**EVERY_CLIENT_PUBLIC).loadgen_resolver_share == 1.0
        assert ClusterConfig(
            resolver_population="mixed", public_resolver_share=0.25
        ).loadgen_resolver_share == 0.25


class TestOnePopulationRule:
    @pytest.mark.parametrize("share", [0.0, 0.3, 0.5, 1.0])
    def test_loadgen_routes_exactly_the_public_clients_to_the_front(self, share):
        keys = range(10_000)
        generator = LoadGenerator(
            ("127.0.0.1", 0), ("127.0.0.1", 0),
            config=LoadConfig(public_resolver_share=share),
            metrics=MetricsRegistry(),
        )
        direct, generator._public_dns = object(), object()
        public = {key for key in keys if is_public_client(key, share)}
        live = {
            key for key in keys
            if generator._dns_for(direct, key) is generator._public_dns
        }
        assert live == public
        assert len(live) == pytest.approx(share * len(keys), abs=200)
