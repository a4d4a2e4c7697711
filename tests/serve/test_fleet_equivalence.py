"""The perf ledger's fleet: fleet size must never change answers.

A 4-worker ``SO_REUSEPORT`` fleet and a 1-worker fleet of the default
edge (and the in-memory resolver) must produce identical DNS chains —
the kernel's worker choice has to be invisible at the protocol level.
Each fleet is queried right after it boots, inside the first 15 s
selection bucket of its workers' clocks, so policy time buckets agree
with the resolver's at time zero.  The merged metrics and the snapshot
container the ledger times are checked here too.
"""

import asyncio
import time

import pytest

from repro.apple.mapping import NAMES
from repro.container import Container
from repro.serve import (
    AsyncDnsClient,
    ClientDirectory,
    FleetConfig,
    ServeFleet,
    build_serve_estate,
    fleet_supported,
)
from repro.serve.snapshot import FleetSpec, estate_signature, load_snapshot, write_snapshot

pytestmark = pytest.mark.skipif(
    not fleet_supported(), reason="platform lacks SO_REUSEPORT fork fleets"
)

SEQUENCES = tuple(range(20))


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


@pytest.fixture(scope="module")
def fleets():
    """``{workers: (fleet, wire answers read right after its boot)}``."""
    directory = ClientDirectory()
    booted = {}
    try:
        for workers in (1, 4):
            fleet = ServeFleet(FleetConfig(workers=workers)).start()
            booted[workers] = (
                fleet, _wire_resolutions(fleet, directory, SEQUENCES)
            )
        yield booted
    finally:
        for fleet, _wire in booted.values():
            fleet.stop()


class TestDnsEquivalence:
    def test_fleet_answers_match_in_memory_resolver(self, fleets):
        directory = ClientDirectory()
        resolver = build_serve_estate().resolver(cache=False)
        for workers, (_fleet, wire) in fleets.items():
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
        single, quad = fleets[1][1], fleets[4][1]
        for sequence in SEQUENCES:
            assert single[sequence].chain_names == quad[sequence].chain_names
            assert single[sequence].addresses == quad[sequence].addresses
            assert single[sequence].records == quad[sequence].records


def _spec(estate_sig: str) -> FleetSpec:
    directory = ClientDirectory.from_adoption()
    return FleetSpec(
        vantages=directory.vantages,
        weights=directory.weights(),
        estate_sig=estate_sig,
    )


class TestSnapshotFormat:
    def test_roundtrip_preserves_spec(self, tmp_path):
        estate = build_serve_estate()
        spec = _spec(estate_signature(estate))
        path = write_snapshot(str(tmp_path / "fleet.rsnap"), spec)
        with load_snapshot(path) as snapshot:
            assert snapshot.spec == spec
            snapshot.verify_estate(estate)  # same build → same signature
            rebuilt = snapshot.spec.directory()
            directory = ClientDirectory.from_adoption()
            assert rebuilt.sample(7).address == directory.sample(7).address

    def test_estate_drift_refused(self, tmp_path):
        path = write_snapshot(str(tmp_path / "drift.rsnap"), _spec("0" * 32))
        with load_snapshot(path) as snapshot:
            with pytest.raises(RuntimeError, match="signature mismatch"):
                snapshot.verify_estate(build_serve_estate())

    def test_corruption_detected(self, tmp_path):
        path = write_snapshot(str(tmp_path / "corrupt.rsnap"), _spec(""))
        raw = bytearray(open(path, "rb").read())
        raw[-1] ^= 0xFF
        open(path, "wb").write(bytes(raw))
        with pytest.raises(RuntimeError, match="checksum"):
            load_snapshot(path)

    def test_a_version_2_snapshot_is_refused_undecoded(self, tmp_path):
        # Version 2 pickled a spec with the edge config, a pinned clock
        # and a catchment signature; this build's spec has none of them,
        # so the container stops such a file before its payload is read.
        path = str(tmp_path / "v2.rsnap")
        Container(b"RSNAP2\n", 2, RuntimeError, "snapshot").write(
            path, {}, [b"not a pickle"]
        )
        with pytest.raises(RuntimeError, match="version 2"):
            load_snapshot(path)

    def test_worker_count_metrics_merge(self, fleets):
        # Each worker ships its registry every metrics interval; wait for
        # all four to have reported once.
        deadline = time.monotonic() + 10.0
        while True:
            family = fleets[4][0].merged_registry().get("serve_fleet_worker_up")
            up = len(list(family.children())) if family is not None else 0
            if up == 4 or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        assert up == 4
