"""A checkpoint file is refused whole when it is damaged or of another schema.

Nothing resumes from a checkpoint any more; the file remains for the
perf ledger's capture → save → load round trip.  Loading it is still an
unpickle of a file, so these tests hold what ``load_checkpoint`` owes
before and while it decodes: a torn or bit-flipped file, a flow log
that breaks its invariants, a schema version other than 10 and a foreign
magic each raise ``CheckpointError``, and a write leaves no temporary
file.  The file under test is a real run's, captured and saved the way
the ledger does it.
"""

import dataclasses
from array import array

import pytest

from repro.obs import MetricsRegistry, use_registry
from repro.simulation import (
    CheckpointError,
    ScenarioConfig,
    Sep2017Scenario,
    SimulationEngine,
    load_checkpoint,
    save_checkpoint,
)
from repro.simulation.checkpoint import capture_checkpoint
from repro.workload import TIMELINE

CFG = dict(global_probe_count=16, isp_probe_count=8, traceroute_probe_count=2)
STEP = 1800.0
START = TIMELINE.at(9, 18)
END = START + 8 * STEP


class TestCheckpointValidation:
    @pytest.fixture(scope="class")
    def small_file(self, tmp_path_factory):
        """An 8-tick run's checkpoint, captured and saved as the ledger does."""
        path = tmp_path_factory.mktemp("ckpts") / "ckpt-00000008.rckpt"
        with use_registry(MetricsRegistry()):
            engine = SimulationEngine(
                Sep2017Scenario(ScenarioConfig(**CFG)), step_seconds=STEP
            )
            reports = []
            engine.run(START, END, progress=reports.append)
            checkpoint = capture_checkpoint(
                engine, start=START, end=END, next_tick=END, reports=reports
            )
        save_checkpoint(checkpoint, path)
        assert load_checkpoint(path).steps == 8
        return path

    def test_torn_checkpoint_rejected(self, small_file, tmp_path):
        torn = tmp_path / small_file.name
        payload = small_file.read_bytes()
        torn.write_bytes(payload[: len(payload) - 16])
        # The container checks the recorded length before it hashes.
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(torn)
        flipped = bytearray(payload)
        flipped[-16] ^= 0x01
        torn.write_bytes(bytes(flipped))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(torn)

    def test_a_flow_log_that_breaks_its_invariants_is_refused(
        self, small_file, tmp_path
    ):
        """The log is unpickled through ``FlowLog.__setstate__``, which
        checks it: a decreasing time or a negative size would otherwise
        land in every traffic figure read off the file."""
        checkpoint = load_checkpoint(small_file)
        block = checkpoint.state["netflow"]["records"]
        assert len(block) > 1
        block.sizes[0] = -7
        state = dict(checkpoint.state)
        state["netflow"] = dict(state["netflow"], records=block)
        path = save_checkpoint(
            dataclasses.replace(checkpoint, state=state), tmp_path / "bad.rckpt"
        )
        with pytest.raises(CheckpointError, match="flow bytes must be positive"):
            load_checkpoint(path)
        block.sizes[0] = 1
        block.block_times = array("d", reversed(block.block_times))
        save_checkpoint(dataclasses.replace(checkpoint, state=state), path)
        with pytest.raises(CheckpointError, match="do not strictly increase"):
            load_checkpoint(path)

    @staticmethod
    def _rewritten_as(version, small_file, tmp_path):
        """The small run's checkpoint, reframed as schema ``version``."""
        from repro.container import Container
        from repro.simulation import checkpoint as module

        assert module._VERSION == 10
        _, payload = module._CONTAINER.read(small_file)
        path = tmp_path / small_file.name
        Container(b"RCKPT1\n", version, CheckpointError, "checkpoint").write(
            path, {"steps": 8}, [bytes(payload)]
        )
        return path

    def test_a_version_4_checkpoint_is_refused(self, small_file, tmp_path):
        """Version 4 stored one flow timestamp per row; this build reads
        version 10 and says so, naming both."""
        path = self._rewritten_as(4, small_file, tmp_path)
        with pytest.raises(CheckpointError, match=r"version 4 .*reads version 10"):
            load_checkpoint(path)

    def test_a_version_5_checkpoint_is_refused(self, small_file, tmp_path):
        """Version 5 pickled a scenario config with a third steering mode
        and its share; it is refused, not read into a config that lost
        them."""
        path = self._rewritten_as(5, small_file, tmp_path)
        with pytest.raises(CheckpointError, match=r"version 5 .*reads version 10"):
            load_checkpoint(path)

    def test_a_version_6_checkpoint_is_refused(self, small_file, tmp_path):
        """Version 6 pickled a scenario config with the Level3 switch and
        the ISP fan-out, and an engine spec with a timeline; it is
        refused, naming both versions."""
        path = self._rewritten_as(6, small_file, tmp_path)
        with pytest.raises(CheckpointError, match=r"version 6 .*reads version 10"):
            load_checkpoint(path)

    def test_a_version_7_checkpoint_is_refused(self, small_file, tmp_path):
        """Version 7 pickled a scenario config with a steering mode; it
        is refused, naming both versions, not read into a config that
        lost the field."""
        path = self._rewritten_as(7, small_file, tmp_path)
        with pytest.raises(CheckpointError, match=r"version 7 .*reads version 10"):
            load_checkpoint(path)

    def test_a_version_8_checkpoint_is_refused(self, small_file, tmp_path):
        """Version 8 pickled a scenario config with the resolver-population
        fields; it is refused, naming both versions, not read into a
        config that lost them."""
        path = self._rewritten_as(8, small_file, tmp_path)
        with pytest.raises(CheckpointError, match=r"version 8 .*reads version 10"):
            load_checkpoint(path)

    def test_a_version_9_checkpoint_is_refused_unread(
        self, small_file, tmp_path, monkeypatch
    ):
        """Version 9 pickled an engine spec with a fault schedule and a
        scenario config with a fault seed; it is refused, naming both
        versions, before a byte of it is unpickled."""
        import pickle

        path = self._rewritten_as(9, small_file, tmp_path)

        def unpickled(*args, **kwargs):
            raise AssertionError("a refused checkpoint was unpickled")

        monkeypatch.setattr(pickle, "loads", unpickled)
        with pytest.raises(CheckpointError, match=r"version 9 .*reads version 10"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "ckpt-00000001.rckpt"
        path.write_bytes(b"GARBAGE")
        with pytest.raises(CheckpointError, match=r"\(bad magic\)"):
            load_checkpoint(path)

    def test_atomic_write_leaves_no_tmp(self, small_file, tmp_path):
        checkpoint = load_checkpoint(small_file)
        save_checkpoint(checkpoint, tmp_path / small_file.name)
        assert [p.name for p in tmp_path.iterdir()] == [small_file.name]
