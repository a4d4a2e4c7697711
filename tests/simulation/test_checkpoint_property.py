"""Property tests for the RCKPT file and the registry snapshot.

Two round trips must be exact: the checkpoint file format (what the
perf ledger times) and the metrics registry snapshot (what a shard
worker ships home with every chunk).  Hypothesis sweeps the inputs the
example tests would hand-pick.

The file format is the one :mod:`repro.container` frame that spilled
``RSEG`` segments and ``RSNAP`` fleet snapshots share, so the
integrity properties here run over all three owners: whatever byte is
damaged or wherever the file is torn, the owner's own error is raised
and nothing is decoded.
"""

import hashlib
import json
import pickle
import struct

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.atlas.columnar import (  # noqa: E402
    DnsColumns,
    DnsSegment,
    SegmentFormatError,
)
from repro.container import Container  # noqa: E402
from repro.obs import MetricsRegistry, snapshot_delta  # noqa: E402
from repro.serve.clients import ClientDirectory  # noqa: E402
from repro.serve.snapshot import (  # noqa: E402
    FleetSpec,
    load_snapshot,
    write_snapshot,
)
from repro.simulation.checkpoint import (  # noqa: E402
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from tests.atlas.test_columnar import sample_measurements  # noqa: E402

SETTINGS = settings(max_examples=25, deadline=None)

finite = st.floats(allow_nan=False, allow_infinity=False, width=32)
labels = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12
)


def synthetic_checkpoints():
    reports = st.tuples(finite, finite, st.integers(0, 1 << 20))
    return st.builds(
        Checkpoint,
        spec=st.none(),
        start=finite,
        end=finite,
        next_tick=finite,
        steps=st.integers(min_value=0, max_value=1 << 30),
        step_seconds=st.floats(min_value=1.0, max_value=86400.0,
                               allow_nan=False),
        reports=st.tuples(reports, reports),
        state=st.dictionaries(labels, st.binary(max_size=64), max_size=4),
        metrics=st.dictionaries(
            labels,
            st.dictionaries(labels, finite, max_size=3),
            max_size=4,
        ),
        observer=st.fixed_dictionaries(
            {"offload_on": st.lists(labels, max_size=3), "peak_eu": finite}
        ),
        digest=st.none() | st.text("0123456789abcdef", min_size=32,
                                   max_size=32),
    )


def sample_checkpoint():
    return Checkpoint(
        spec=None, start=0.0, end=10.0, next_tick=1.0, steps=1,
        step_seconds=1.0, reports=((0.0, 1.0, 2),), state={"k": b"v"},
        metrics={}, observer={}, digest=None,
    )


def _spill_segment(path):
    segment = DnsSegment(
        DnsColumns.from_measurements(sample_measurements()), 0, 0
    )
    segment.spill(path)
    return segment.load


def _save_checkpoint(path):
    save_checkpoint(sample_checkpoint(), path)
    return lambda: load_checkpoint(path)


def _write_snapshot(path):
    spec = FleetSpec(
        vantages=ClientDirectory().vantages, weights={}, estate_sig=""
    )
    write_snapshot(str(path), spec)
    return lambda: load_snapshot(str(path))


# The three container owners: (file name, write a valid file and return
# its loader, the error the owner promises for any damage).
OWNERS = {
    "segment": ("seg.bin", _spill_segment, SegmentFormatError),
    "checkpoint": ("ckpt-00000001.rckpt", _save_checkpoint, CheckpointError),
    "snapshot": ("fleet.rsnap", _write_snapshot, RuntimeError),
}


@pytest.fixture(scope="module")
def frames(tmp_path_factory):
    """One valid file per owner: ``{owner: (path, bytes, loader, error)}``."""
    directory = tmp_path_factory.mktemp("frames")
    out = {}
    for owner, (name, write, error) in OWNERS.items():
        path = directory / name
        loader = write(path)
        out[owner] = (path, path.read_bytes(), loader, error)
    return out


_TRIPPED = []


class _Tripwire:
    """Unpickling this records itself: proof a payload was decoded."""

    def __reduce__(self):
        return (_TRIPPED.append, ("decoded",))


class TestFileFormatRoundTrip:
    @SETTINGS
    @given(checkpoint=synthetic_checkpoints())
    def test_save_load_identity(self, checkpoint, tmp_path_factory):
        path = tmp_path_factory.mktemp("rckpt") / "ckpt-00000001.rckpt"
        save_checkpoint(checkpoint, path)
        assert load_checkpoint(path) == checkpoint

    @SETTINGS
    @given(
        checkpoint=synthetic_checkpoints(),
        fraction=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    )
    def test_any_truncation_detected(
        self, checkpoint, fraction, tmp_path_factory, frames
    ):
        # A crash can tear a non-atomic write anywhere; every proper
        # prefix of a valid file must be rejected, never half-loaded.
        path = tmp_path_factory.mktemp("rckpt") / "ckpt-00000001.rckpt"
        save_checkpoint(checkpoint, path)
        payload = path.read_bytes()
        path.write_bytes(payload[: int(len(payload) * fraction)])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        # ... and the same holds for the other owners of the container.
        for path, valid, loader, error in frames.values():
            path.write_bytes(valid[: int(len(valid) * fraction)])
            with pytest.raises(error):
                loader()

    @settings(max_examples=150, deadline=None)
    @given(
        owner=st.sampled_from(sorted(OWNERS)),
        position=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        mask=st.integers(min_value=1, max_value=255),
    )
    def test_any_single_byte_mutation_detected(
        self, owner, position, mask, frames
    ):
        # Bit rot anywhere — magic, header length, header, digest or
        # payload — surfaces as the owner's error before any decode.
        path, valid, loader, error = frames[owner]
        damaged = bytearray(valid)
        damaged[int(len(valid) * position)] ^= mask
        path.write_bytes(bytes(damaged))
        with pytest.raises(error):
            loader()

    def test_parent_layouts_are_refused_undecoded(self, tmp_path):
        # Files in the three pre-container layouts carry a well-formed
        # frame of their day around a payload that must never reach a
        # decoder: the refusal has to come from the magic or version.
        payload = pickle.dumps(_Tripwire())
        digest = hashlib.blake2b(payload, digest_size=16)
        header = json.dumps(
            {"version": 1, "steps": 1, "next_tick": 1.0,
             "checksum": digest.hexdigest()},
            sort_keys=True,
        ).encode()
        old_checkpoint = tmp_path / "ckpt-00000001.rckpt"
        old_checkpoint.write_bytes(
            b"RCKPT1\n" + struct.pack("<I", len(header)) + header + payload
        )
        with pytest.raises(CheckpointError, match="version 1"):
            load_checkpoint(old_checkpoint)
        # The parent commit's schema (version 2: stores and grids under
        # the global_/isp_ twins' names) in today's frame, checksum valid.
        parent_checkpoint = tmp_path / "ckpt-00000002.rckpt"
        Container(b"RCKPT1\n", 2, CheckpointError, "checkpoint").write(
            parent_checkpoint, {"steps": 2, "next_tick": 2.0}, [payload]
        )
        with pytest.raises(CheckpointError, match="version 2"):
            load_checkpoint(parent_checkpoint)

        old_snapshot = tmp_path / "fleet.rsnap"
        old_snapshot.write_bytes(
            b"RSNAP1\n" + digest.digest()
            + len(payload).to_bytes(8, "big") + payload
        )
        with pytest.raises(RuntimeError, match="bad magic"):
            load_snapshot(str(old_snapshot))

        seg_header = json.dumps({"rows": 0, "tables": {}, "arrays": []}).encode()
        old_segment = (
            b"RSEG1\n" + struct.pack("<I", len(seg_header)) + seg_header
        )
        with pytest.raises(SegmentFormatError, match="bad magic"):
            DnsColumns.from_bytes(old_segment)
        assert _TRIPPED == []

    def test_a_version_3_checkpoint_is_refused_undecoded(self, tmp_path):
        # Version 3 pickled each store's traceroutes as objects; this
        # build restores columns, so the container stops a version-3
        # file at its header, before the payload reaches pickle.
        path = tmp_path / "ckpt-00000003.rckpt"
        Container(b"RCKPT1\n", 3, CheckpointError, "checkpoint").write(
            path, {"steps": 3, "next_tick": 3.0}, [pickle.dumps(_Tripwire())]
        )
        with pytest.raises(CheckpointError, match="version 3"):
            load_checkpoint(path)
        assert _TRIPPED == []

    @pytest.mark.parametrize("owner", sorted(OWNERS))
    def test_failed_write_raises_the_owners_error_and_leaves_no_tmp(
        self, owner, tmp_path
    ):
        name, write, error = OWNERS[owner]
        # The directory does not exist: not even the tmp can be opened.
        with pytest.raises(error):
            write(tmp_path / "missing" / name)
        # The target is a directory: the tmp is written and fsynced,
        # then the rename fails — the tmp must not be left behind.
        (tmp_path / name).mkdir()
        with pytest.raises(error):
            write(tmp_path / name)
        assert [p.name for p in tmp_path.iterdir()] == [name]


class TestRegistryRoundTrip:
    @SETTINGS
    @given(
        increments=st.lists(
            st.tuples(labels, labels, st.floats(min_value=0.0,
                                                max_value=1e9,
                                                allow_nan=False)),
            max_size=20,
        )
    )
    def test_snapshot_absorb_identity(self, increments):
        original = MetricsRegistry()
        for family, label, amount in increments:
            original.counter(family, labelnames=("kind",)).labels(
                label
            ).inc(amount)
        restored = MetricsRegistry()
        restored.absorb_snapshot(original.snapshot())
        assert restored.snapshot() == original.snapshot()
        assert snapshot_delta(restored.snapshot(), original.snapshot()) == {}

