"""Multi-worker wire equivalence: fleet size must never change answers.

A 4-worker ``SO_REUSEPORT`` fleet and a 1-worker fleet (and the
in-memory resolver) must produce identical DNS chains, identical
per-connection cache behaviour, and identical wire-carried trace
context — the kernel's worker choice has to be invisible at the
protocol level.  Clocks are pinned to 0 on both fleets so policy
time buckets agree.
"""

import asyncio
import multiprocessing
from dataclasses import replace

import pytest

from repro.apple.mapping import NAMES
from repro.http.headers import CacheStatus
from repro.obs import TraceContext, new_trace_id, use_context
from repro.serve import (
    AsyncDnsClient,
    ClientDirectory,
    ClusterConfig,
    FleetConfig,
    PooledHttpClient,
    ServeFleet,
    build_serve_estate,
    fleet_supported,
)
from repro.serve.snapshot import FleetSpec, estate_signature, load_snapshot, write_snapshot

pytestmark = pytest.mark.skipif(
    not fleet_supported(), reason="platform lacks SO_REUSEPORT fork fleets"
)

CONFIG = ClusterConfig(servers_per_metro=4)
SEQUENCES = tuple(range(20))


def _boot(workers: int, steering: str = "dns") -> ServeFleet:
    return ServeFleet(FleetConfig(
        workers=workers, cluster=replace(CONFIG, steering=steering),
        pin_clock=0.0,
    )).start()


@pytest.fixture(scope="module")
def fleets():
    single = _boot(1)
    quad = _boot(4)
    yield {1: single, 4: quad}
    quad.stop()
    single.stop()


def _wire_resolutions(fleet: ServeFleet, directory, sequences):
    async def scenario():
        client = await AsyncDnsClient.open(
            *fleet.dns_endpoint, source_prefix_len=32
        )
        try:
            results = {}
            for sequence in sequences:
                sampled = directory.sample(sequence)
                results[sequence] = await client.resolve(
                    NAMES.entry_point, sampled.address
                )
            return results
        finally:
            client.close()

    return asyncio.run(scenario())


def _cache_verdicts(fleet: ServeFleet, path: str, fetches: int = 3):
    """X-Cache/Via headers for repeated fetches over ONE connection.

    A keep-alive connection pins to one worker, so the warm-up pattern
    must match the single-loop edge exactly.
    """
    estate = build_serve_estate(CONFIG)
    vip = estate.apple.sites[0].vip_addresses[0]
    directory = ClientDirectory()
    client_addr = directory.sample(0).address

    async def scenario():
        http = PooledHttpClient(*fleet.http_endpoint, pool_size=1)
        try:
            out = []
            for _ in range(fetches):
                status, headers, _length = await http.get(
                    path, host=NAMES.entry_point, vip=vip, client=client_addr,
                    range_bytes=(0, 4095),
                )
                out.append((
                    status,
                    headers.get("X-Cache") or "",
                    headers.get("Via") or "",
                ))
            return out
        finally:
            await http.close()

    return asyncio.run(scenario())


class TestDnsEquivalence:
    def test_fleet_answers_match_in_memory_resolver(self, fleets):
        directory = ClientDirectory()
        resolver = build_serve_estate(CONFIG).resolver(cache=False)
        for workers, fleet in fleets.items():
            wire = _wire_resolutions(fleet, directory, SEQUENCES)
            for sequence in SEQUENCES:
                sampled = directory.sample(sequence)
                memory = resolver.resolve(
                    NAMES.entry_point, sampled.context(0.0)
                )
                assert wire[sequence].chain_names == memory.chain_names, (
                    f"{workers}-worker fleet diverged for {sampled.address}"
                )
                assert wire[sequence].addresses == memory.addresses

    def test_one_and_four_workers_answer_identically(self, fleets):
        directory = ClientDirectory()
        single = _wire_resolutions(fleets[1], directory, SEQUENCES)
        quad = _wire_resolutions(fleets[4], directory, SEQUENCES)
        for sequence in SEQUENCES:
            assert single[sequence].chain_names == quad[sequence].chain_names
            assert single[sequence].addresses == quad[sequence].addresses
            assert single[sequence].records == quad[sequence].records


class TestCacheEquivalence:
    def test_connection_pinned_cache_warms_identically(self, fleets):
        single = _cache_verdicts(fleets[1], "/content/fleet-eq-a.ipsw")
        quad = _cache_verdicts(fleets[4], "/content/fleet-eq-a.ipsw")
        assert single == quad
        # And the pattern itself is the single-loop edge's: cold first
        # fetch, cache hits (client-most verdict) from then on.
        first_verdicts = [
            CacheStatus.parse(x_cache.split(",")[0].strip())
            for _status, x_cache, _via in quad
        ]
        assert not first_verdicts[0].is_hit
        assert all(v.is_hit for v in first_verdicts[1:])

    def test_via_chains_identical_across_fleet_sizes(self, fleets):
        single = _cache_verdicts(fleets[1], "/content/fleet-eq-b.ipsw", 2)
        quad = _cache_verdicts(fleets[4], "/content/fleet-eq-b.ipsw", 2)
        for (_, _, via_single), (_, _, via_quad) in zip(single, quad):
            assert via_single == via_quad
            assert via_single  # the hierarchy annotated its hops


class TestTraceContextPropagation:
    def test_wire_trace_context_echoed_by_every_fleet_size(self, fleets):
        directory = ClientDirectory()
        address = directory.sample(3).address
        trace_id = new_trace_id("fleet-equivalence")
        context = TraceContext(trace_id=trace_id, sampled=True)

        async def echo(fleet):
            client = await AsyncDnsClient.open(
                *fleet.dns_endpoint, source_prefix_len=32
            )
            try:
                with use_context(context):
                    response = await client.query(NAMES.entry_point, address)
                return response.trace_context
            finally:
                client.close()

        for fleet in fleets.values():
            echoed = asyncio.run(echo(fleet))
            assert echoed is not None
            assert echoed.trace_id == trace_id
            assert echoed.sampled


class TestAnycastFleetEquivalence:
    def test_anycast_fleet_sizes_agree_on_wire(self):
        single = _boot(1, steering="anycast")
        duo = _boot(2, steering="anycast")
        try:
            assert single.spec.catchment_sig
            assert single.spec.catchment_sig == duo.spec.catchment_sig
            directory = ClientDirectory()
            a = _wire_resolutions(single, directory, SEQUENCES[:10])
            b = _wire_resolutions(duo, directory, SEQUENCES[:10])
            for sequence in SEQUENCES[:10]:
                assert a[sequence].chain_names == b[sequence].chain_names
                assert a[sequence].addresses == b[sequence].addresses
            one = _cache_verdicts(single, "/content/fleet-eq-anycast.ipsw", 2)
            two = _cache_verdicts(duo, "/content/fleet-eq-anycast.ipsw", 2)
            assert one == two
        finally:
            duo.stop()
            single.stop()


class TestEdgeDescription:
    def test_bad_steering_refused_before_any_worker_forks(self):
        # Steering is the ClusterConfig's to check, at construction: a
        # fleet never forks a worker only to have it fail to boot.
        before = set(multiprocessing.active_children())
        with pytest.raises(ValueError, match="unknown steering mode"):
            ServeFleet(FleetConfig(cluster=ClusterConfig(steering="bogus"))).start()
        assert set(multiprocessing.active_children()) == before


class TestSnapshotFormat:
    def test_roundtrip_preserves_spec(self, tmp_path):
        estate = build_serve_estate(CONFIG)
        directory = ClientDirectory.from_adoption()
        spec = FleetSpec(
            cluster=CONFIG,
            vantages=directory.vantages,
            weights=directory.weights(),
            pin_clock=0.0,
            estate_sig=estate_signature(estate),
        )
        path = write_snapshot(str(tmp_path / "fleet.rsnap"), spec)
        with load_snapshot(path) as snapshot:
            assert snapshot.spec == spec
            snapshot.verify_estate(estate)  # same build → same signature
            rebuilt = snapshot.spec.directory()
            assert rebuilt.sample(7).address == directory.sample(7).address

    def test_estate_drift_refused(self, tmp_path):
        spec = FleetSpec(
            cluster=CONFIG,
            vantages=ClientDirectory().vantages,
            weights={},
            estate_sig="0" * 32,
        )
        path = write_snapshot(str(tmp_path / "drift.rsnap"), spec)
        with load_snapshot(path) as snapshot:
            with pytest.raises(RuntimeError, match="signature mismatch"):
                snapshot.verify_estate(build_serve_estate(CONFIG))

    def test_corruption_detected(self, tmp_path):
        spec = FleetSpec(
            cluster=CONFIG, vantages=ClientDirectory().vantages, weights={}
        )
        path = write_snapshot(str(tmp_path / "corrupt.rsnap"), spec)
        raw = bytearray(open(path, "rb").read())
        raw[-1] ^= 0xFF
        open(path, "wb").write(bytes(raw))
        with pytest.raises(RuntimeError, match="checksum"):
            load_snapshot(path)

    def test_worker_count_metrics_merge(self, fleets):
        family = fleets[4].merged_registry().get("serve_fleet_worker_up")
        assert family is not None
        assert len(list(family.children())) == 4
