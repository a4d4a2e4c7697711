"""Checkpoint → kill → resume must be invisible in the outputs.

The crash-tolerance contract (``repro.simulation.checkpoint``): a run
interrupted at any checkpoint boundary and resumed on a freshly built
engine reproduces the uninterrupted run's ``RunSummary`` byte-for-byte,
at any ``workers=N``.  These tests cut a 48-tick window at tick 16 and
compare the resumed run's rendered summary against the uninterrupted
golden, for serial and sharded runs, through a graceful SIGTERM drain,
and through a real SIGKILL of a checkpointing subprocess.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.obs import EventTracer, MetricsRegistry, use_registry, use_tracer
from repro.simulation import (
    CheckpointError,
    ScenarioConfig,
    Sep2017Scenario,
    SimulationEngine,
    latest_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.simulation.concurrency import state_digest
from repro.simulation.engine import RunSummary
from repro.workload import TIMELINE

CFG = dict(global_probe_count=16, isp_probe_count=8, traceroute_probe_count=2)
STEP = 1800.0
START, END = TIMELINE.at(9, 18), TIMELINE.at(9, 19)
TOTAL_TICKS = int((END - START) / STEP)  # 48
CUT = START + 16 * STEP


def render(scenario, reports):
    summary = RunSummary.from_run(scenario, reports)
    return json.dumps(summary.to_json_dict(), sort_keys=True)


def fresh_engine():
    scenario = Sep2017Scenario(ScenarioConfig(**CFG))
    return SimulationEngine(scenario, step_seconds=STEP)


@pytest.fixture(scope="module")
def golden():
    """The uninterrupted serial run's rendered summary."""
    with use_registry(MetricsRegistry()):
        engine = fresh_engine()
        reports = []
        engine.run(START, END, progress=reports.append)
    return render(engine.scenario, reports)


def partial_checkpoint(directory, workers, every=4):
    """Run START→CUT with checkpoints; return the latest checkpoint."""
    with use_registry(MetricsRegistry()):
        engine = fresh_engine()
        steps = engine.run(
            START,
            CUT,
            workers=workers,
            checkpoint_every=every,
            checkpoint_dir=directory,
        )
    assert steps == 16
    # The serial loop gets a write opportunity after every tick, a
    # sharded run only at its 16-tick chunk boundaries.
    assert engine.run_stats["checkpoints_written"] == (
        steps // every if workers == 1 else 1
    )
    return load_checkpoint(directory)


class TestResumeIdentity:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_resume_reproduces_uninterrupted_run(
        self, tmp_path, golden, workers
    ):
        checkpoint = partial_checkpoint(tmp_path, workers)
        assert checkpoint.steps == 16
        assert checkpoint.next_tick == CUT
        with use_registry(MetricsRegistry()):
            engine = checkpoint.spec.build()
            reports = []
            ran = engine.run(
                end=END,
                progress=reports.append,
                workers=workers,
                resume_from=checkpoint,
            )
        assert ran == TOTAL_TICKS - 16
        # Restored reports are re-fed through progress: full stream.
        assert len(reports) == TOTAL_TICKS
        assert engine.run_stats["resumed_from_step"] == 16
        assert render(engine.scenario, reports) == golden

    def test_the_flow_log_is_stored_as_a_block_and_a_record_tuple_still_restores(
        self, tmp_path, golden
    ):
        """The parent commit wrote ``records`` as a tuple of ``FlowRecord``."""
        import dataclasses

        from repro.isp.netflow import FlowLog, FlowRecord

        checkpoint = partial_checkpoint(tmp_path, workers=1)
        block = checkpoint.state["netflow"]["records"]
        assert isinstance(block, FlowLog) and len(block) > 0
        parent_shaped = tuple(block)
        assert all(type(record) is FlowRecord for record in parent_shaped)
        state = dict(checkpoint.state)
        state["netflow"] = dict(state["netflow"], records=parent_shaped)
        old_path = save_checkpoint(
            dataclasses.replace(checkpoint, state=state), tmp_path / "old.rckpt"
        )
        restored = load_checkpoint(old_path)
        assert type(restored.state["netflow"]["records"]) is tuple
        with use_registry(MetricsRegistry()):
            engine = restored.spec.build()
            reports = []
            engine.run(end=END, progress=reports.append, resume_from=restored)
        assert engine.scenario.netflow.records[: len(block)] == block
        assert render(engine.scenario, reports) == golden

    def test_resume_across_worker_counts(self, tmp_path, golden):
        # A serial checkpoint resumed sharded: the replica warm-up path.
        checkpoint = partial_checkpoint(tmp_path, workers=1)
        with use_registry(MetricsRegistry()):
            engine = checkpoint.spec.build()
            reports = []
            engine.run(
                end=END,
                progress=reports.append,
                workers=4,
                resume_from=checkpoint,
            )
        assert render(engine.scenario, reports) == golden


class TestReplayToABoundary:
    def test_resumed_trace_starts_at_the_boundary(self, tmp_path):
        """The replay to the checkpoint's tick is silent: a resumed run
        traces nothing stamped before ``next_tick``, though the same
        ticks, run, trace plenty."""
        full_tracer = EventTracer()
        with use_registry(MetricsRegistry()), use_tracer(full_tracer):
            fresh_engine().run(START, END)
        assert [r for r in full_tracer.records() if r.ts < CUT]

        checkpoint = partial_checkpoint(tmp_path, workers=1)
        assert checkpoint.next_tick == CUT
        tracer = EventTracer()
        with use_registry(MetricsRegistry()), use_tracer(tracer):
            checkpoint.spec.build().run(end=END, resume_from=checkpoint)
        assert len(tracer) > 0
        assert [r for r in tracer.records() if r.ts < checkpoint.next_tick] == []

    def test_replay_state_is_advance_without_the_products(self):
        ticks = [START + index * STEP for index in range(16)]
        with use_registry(MetricsRegistry()), use_tracer(EventTracer()):
            stepped = fresh_engine()
            for now in ticks:
                last = stepped.advance(now)
        registry, tracer = MetricsRegistry(), EventTracer()
        with use_registry(registry), use_tracer(tracer):
            replayed = fresh_engine()
            state = replayed.replay_state(ticks)
        assert state_digest(*state) == state_digest(
            last.now, last.demand_gbps, last.operator_gbps
        )
        a, b = stepped.scenario, replayed.scenario
        assert [c.cadence.next_due for c in b.dns_campaigns] == [
            c.cadence.next_due for c in a.dns_campaigns
        ]
        assert None not in [c.cadence.next_due for c in b.dns_campaigns]
        assert len(a.netflow) > 0 and any(len(store) for store in a.stores)
        assert b.is_fresh() is False and not any(len(store) for store in b.stores)
        assert len(b.netflow) == 0 and b.aws_campaign.results == []
        assert list(registry.get("engine_phase_seconds").children()) == []
        assert len(tracer) == 0
        assert replayed._obs.profiling is True  # restored after the replay


class TestSigtermDrain:
    def test_drain_writes_final_checkpoint_and_resumes(
        self, tmp_path, golden
    ):
        # SIGTERM lands mid-run (raised from the progress callback, so
        # it hits the installed handler between ticks); the run drains,
        # writes a final checkpoint, and a resume completes the window.
        with use_registry(MetricsRegistry()):
            engine = fresh_engine()

            def progress(report, _seen=[]):
                _seen.append(report)
                if len(_seen) == 6:
                    os.kill(os.getpid(), signal.SIGTERM)

            steps = engine.run(
                START,
                END,
                progress=progress,
                checkpoint_every=10,
                checkpoint_dir=tmp_path,
            )
        assert engine.run_stats["drained"]
        assert steps < TOTAL_TICKS
        # The drain forced a write at the interrupted boundary, not at
        # the configured cadence.
        checkpoint = latest_checkpoint(tmp_path)
        assert checkpoint.steps == steps
        with use_registry(MetricsRegistry()):
            engine = checkpoint.spec.build()
            reports = []
            engine.run(end=END, progress=reports.append, resume_from=checkpoint)
        assert render(engine.scenario, reports) == golden

    def test_sigterm_handler_restored_after_run(self, tmp_path):
        before = signal.getsignal(signal.SIGTERM)
        with use_registry(MetricsRegistry()):
            engine = fresh_engine()
            engine.run(
                START,
                START + 2 * STEP,
                checkpoint_every=1,
                checkpoint_dir=tmp_path,
            )
        assert signal.getsignal(signal.SIGTERM) == before


CHILD_SCRIPT = """
import sys
from repro.obs import MetricsRegistry, use_registry
from repro.simulation import ScenarioConfig, Sep2017Scenario, SimulationEngine
from repro.workload import TIMELINE

directory = sys.argv[1]
with use_registry(MetricsRegistry()):
    scenario = Sep2017Scenario(ScenarioConfig(
        global_probe_count=16, isp_probe_count=8, traceroute_probe_count=2,
    ))
    engine = SimulationEngine(scenario, step_seconds=1800.0)
    engine.run(
        TIMELINE.at(9, 18), TIMELINE.at(9, 19),
        checkpoint_every=4, checkpoint_dir=directory,
    )
"""


class TestHardCrash:
    def test_sigkill_midrun_resumes_identically(self, tmp_path, golden):
        """The headline drill: SIGKILL a checkpointing run, resume it."""
        env = dict(os.environ)
        src = Path(__file__).resolve().parents[2] / "src"
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + env.get("PYTHONPATH", "").split(os.pathsep)
        ).rstrip(os.pathsep)
        child = subprocess.Popen(
            [sys.executable, "-c", CHILD_SCRIPT, str(tmp_path)], env=env
        )
        try:
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if list(tmp_path.glob("ckpt-*.rckpt")):
                    break
                if child.poll() is not None:
                    pytest.fail("child exited before writing a checkpoint")
                time.sleep(0.05)
            else:
                pytest.fail("child never wrote a checkpoint")
            child.kill()
        finally:
            child.wait()

        checkpoint = latest_checkpoint(tmp_path)
        assert 0 < checkpoint.steps < TOTAL_TICKS
        with use_registry(MetricsRegistry()):
            engine = checkpoint.spec.build()
            reports = []
            engine.run(end=END, progress=reports.append, resume_from=checkpoint)
        assert len(reports) == TOTAL_TICKS
        assert render(engine.scenario, reports) == golden


class TestCheckpointValidation:
    @pytest.fixture(scope="class")
    def small_dir(self, tmp_path_factory):
        """An 8-tick run checkpointed every 4 ticks (two files)."""
        directory = tmp_path_factory.mktemp("ckpts")
        with use_registry(MetricsRegistry()):
            engine = fresh_engine()
            engine.run(
                START,
                START + 8 * STEP,
                checkpoint_every=4,
                checkpoint_dir=directory,
            )
        names = sorted(p.name for p in directory.glob("ckpt-*.rckpt"))
        assert names == ["ckpt-00000004.rckpt", "ckpt-00000008.rckpt"]
        return directory

    def test_torn_checkpoint_rejected(self, small_dir, tmp_path):
        source = small_dir / "ckpt-00000008.rckpt"
        torn = tmp_path / source.name
        payload = source.read_bytes()
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
        self, small_dir, tmp_path
    ):
        """The restore path absorbs the log as it is: a decreasing time or
        a negative size would land in every traffic figure."""
        import dataclasses
        from array import array

        checkpoint = load_checkpoint(small_dir / "ckpt-00000008.rckpt")
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
    def _rewritten_as(version, small_dir, tmp_path):
        """The small run's checkpoint, reframed as schema ``version``."""
        from repro.container import Container
        from repro.simulation import checkpoint as module

        assert module._VERSION == 10
        _, payload = module._CONTAINER.read(small_dir / "ckpt-00000008.rckpt")
        path = tmp_path / "ckpt-00000008.rckpt"
        Container(b"RCKPT1\n", version, CheckpointError, "checkpoint").write(
            path, {"steps": 8}, [bytes(payload)]
        )
        return path

    def test_a_version_4_checkpoint_is_refused(self, small_dir, tmp_path):
        """Version 4 stored one flow timestamp per row; this build reads
        version 10 and says so, naming both."""
        path = self._rewritten_as(4, small_dir, tmp_path)
        with pytest.raises(CheckpointError, match=r"version 4 .*reads version 10"):
            load_checkpoint(path)

    def test_a_version_5_checkpoint_is_refused(self, small_dir, tmp_path):
        """Version 5 pickled a scenario config with a third steering mode
        and its share; it is refused, not resumed under a config that
        lost them."""
        path = self._rewritten_as(5, small_dir, tmp_path)
        with pytest.raises(CheckpointError, match=r"version 5 .*reads version 10"):
            load_checkpoint(path)

    def test_a_version_6_checkpoint_is_refused(self, small_dir, tmp_path):
        """Version 6 pickled a scenario config with the Level3 switch and
        the ISP fan-out, and an engine spec with a timeline; it is
        refused, naming both versions."""
        path = self._rewritten_as(6, small_dir, tmp_path)
        with pytest.raises(CheckpointError, match=r"version 6 .*reads version 10"):
            load_checkpoint(path)

    def test_a_version_7_checkpoint_is_refused(self, small_dir, tmp_path):
        """Version 7 pickled a scenario config with a steering mode; it
        is refused, naming both versions, not resumed under a config
        that lost the field."""
        path = self._rewritten_as(7, small_dir, tmp_path)
        with pytest.raises(CheckpointError, match=r"version 7 .*reads version 10"):
            load_checkpoint(path)

    def test_a_version_8_checkpoint_is_refused(self, small_dir, tmp_path):
        """Version 8 pickled a scenario config with the resolver-population
        fields; it is refused, naming both versions, not resumed under a
        config that lost them."""
        path = self._rewritten_as(8, small_dir, tmp_path)
        with pytest.raises(CheckpointError, match=r"version 8 .*reads version 10"):
            load_checkpoint(path)

    def test_a_version_9_checkpoint_is_refused_unread(
        self, small_dir, tmp_path, monkeypatch
    ):
        """Version 9 pickled an engine spec with a fault schedule and a
        scenario config with a fault seed; it is refused, naming both
        versions, before a byte of it is unpickled."""
        import pickle

        path = self._rewritten_as(9, small_dir, tmp_path)

        def unpickled(*args, **kwargs):
            raise AssertionError("a refused checkpoint was unpickled")

        monkeypatch.setattr(pickle, "loads", unpickled)
        with pytest.raises(CheckpointError, match=r"version 9 .*reads version 10"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "ckpt-00000001.rckpt"
        path.write_bytes(b"GARBAGE")
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_latest_skips_corrupt_newest(self, small_dir, tmp_path):
        # The crash that makes a resume necessary may tear the newest
        # file; latest_checkpoint must fall back to the previous one.
        for name in ("ckpt-00000004.rckpt", "ckpt-00000008.rckpt"):
            (tmp_path / name).write_bytes((small_dir / name).read_bytes())
        newest = tmp_path / "ckpt-00000008.rckpt"
        newest.write_bytes(newest.read_bytes()[:40])
        checkpoint = latest_checkpoint(tmp_path)
        assert checkpoint.steps == 4

    def test_empty_directory_lists_reason(self, tmp_path):
        with pytest.raises(CheckpointError, match="no ckpt-"):
            latest_checkpoint(tmp_path)

    def test_resume_rejects_config_mismatch(self, small_dir):
        checkpoint = load_checkpoint(small_dir)
        other = dict(CFG, global_probe_count=CFG["global_probe_count"] + 8)
        with use_registry(MetricsRegistry()):
            engine = SimulationEngine(
                Sep2017Scenario(ScenarioConfig(**other)), step_seconds=STEP
            )
            with pytest.raises(CheckpointError, match="config"):
                engine.run(end=END, resume_from=checkpoint)

    def test_resume_rejects_step_mismatch(self, small_dir):
        checkpoint = load_checkpoint(small_dir)
        with use_registry(MetricsRegistry()):
            engine = SimulationEngine(
                Sep2017Scenario(ScenarioConfig(**CFG)), step_seconds=900.0
            )
            with pytest.raises(CheckpointError, match="step_seconds"):
                engine.run(end=END, resume_from=checkpoint)

    def test_resume_rejects_used_scenario(self, small_dir):
        checkpoint = load_checkpoint(small_dir)
        with use_registry(MetricsRegistry()):
            engine = fresh_engine()
            engine.run(START, START + 2 * STEP)
            with pytest.raises(CheckpointError, match="fresh"):
                engine.run(end=END, resume_from=checkpoint)

    def test_checkpoint_every_requires_directory(self):
        with use_registry(MetricsRegistry()):
            engine = fresh_engine()
            with pytest.raises(ValueError, match="needs checkpoint_dir"):
                engine.run(START, END, checkpoint_every=4)

    def test_checkpoint_directory_requires_every(self, tmp_path):
        # A directory with no cadence can never be written to: refused
        # up front, not run to the end in silence.
        with use_registry(MetricsRegistry()):
            engine = fresh_engine()
            with pytest.raises(ValueError, match="needs checkpoint_every"):
                engine.run(START, END, checkpoint_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_atomic_write_leaves_no_tmp(self, small_dir, tmp_path):
        checkpoint = load_checkpoint(small_dir)
        save_checkpoint(checkpoint, tmp_path / "ckpt-00000008.rckpt")
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt-00000008.rckpt"]
