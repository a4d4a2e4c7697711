"""A lost shard worker: detected, checkpointed, and handed to ``resume``.

``run_sharded`` does not heal a worker that dies, hangs or fails — it
raises ``ShardWorkerLost`` at the last merged tick, forces a checkpoint
there when the run keeps them, and names ``repro resume``, the one way
back.  These tests lose workers for real (``SIGKILL`` / ``SIGSTOP``
from the progress callback, a worker-side exception) and hold the four
things that path owes: the typed error, a checkpoint at the last fully
merged chunk, no leaked child process, and a resume — at any worker
count — byte-identical to the uninterrupted serial run.  Detection
itself (the coordinator's per-tick digest check, and its check of each
measurement slice against the shard's probes) is exercised by
corrupting a replica from a scenario subclass.
"""

import json
import multiprocessing
import os
import signal

import pytest

from repro.atlas.columnar import DnsColumns
from repro.obs import EventTracer, MetricsRegistry, use_registry, use_tracer
from repro.simulation import (
    ScenarioConfig,
    Sep2017Scenario,
    SimulationEngine,
    latest_checkpoint,
)
from repro.simulation import concurrency
from repro.simulation.concurrency import (
    CHUNK_TICKS,
    ShardDivergenceError,
    ShardWorkerLost,
    run_sharded,
)
from repro.simulation.engine import RunSummary
from repro.workload import TIMELINE

CFG = dict(global_probe_count=16, isp_probe_count=8, traceroute_probe_count=2)
STEP = 1800.0
START = TIMELINE.at(9, 18)
TICKS = 4 * CHUNK_TICKS
END = START + TICKS * STEP


# Processes alive before a test runs (pytest-xdist workers, fixtures'
# leftovers) are not run_sharded's to reap.
def _children():
    return {p.pid for p in multiprocessing.active_children()}


def render(scenario, reports):
    summary = RunSummary.from_run(scenario, reports)
    return json.dumps(summary.to_json_dict(), sort_keys=True)


def fresh_engine(scenario_class=Sep2017Scenario):
    return SimulationEngine(
        scenario_class(ScenarioConfig(**CFG)), step_seconds=STEP
    )


@pytest.fixture(scope="module")
def golden():
    """The uninterrupted serial run's rendered summary."""
    with use_registry(MetricsRegistry()):
        engine = fresh_engine()
        reports = []
        engine.run(START, END, progress=reports.append)
    return render(engine.scenario, reports)


def lose_a_worker(directory, at_tick, signum, before, then=lambda: None):
    """Run the window on three workers, sending ``signum`` to one shard
    worker from the progress callback of tick ``at_tick`` (``then()``
    runs right after); returns the error, how many reports were merged,
    and the signalled pid."""
    reports, hit = [], []

    def progress(report):
        reports.append(report)
        if len(reports) == at_tick + 1:
            hit.append(min(_children() - before))
            os.kill(hit[0], signum)
            then()

    with use_registry(MetricsRegistry()):
        with pytest.raises(ShardWorkerLost) as caught:
            fresh_engine().run(
                START, END, progress=progress, workers=3,
                checkpoint_every=4 * TICKS, checkpoint_dir=directory,
            )
    return caught.value, len(reports), hit[0]


def assert_stopped_at_last_merged_chunk(directory, error, merged, at_tick):
    # The chunk being merged when the signal lands completes (its
    # results are home); the next one does too if the worker had already
    # shipped it.  Either way the run stops on a chunk boundary, with
    # everything merged on disk and nothing else.
    chunk = at_tick // CHUNK_TICKS
    assert merged in ((chunk + 1) * CHUNK_TICKS, (chunk + 2) * CHUNK_TICKS)
    checkpoint = latest_checkpoint(directory)
    assert checkpoint.steps == merged == len(checkpoint.reports)
    assert checkpoint.next_tick == START + merged * STEP
    assert [p.name for p in directory.iterdir()] == [
        f"ckpt-{merged:08d}.rckpt"
    ]
    message = str(error)
    assert f"after {merged} merged steps" in message
    assert f"t={checkpoint.next_tick:g}" in message
    assert f"repro resume --from {directory}" in message
    return checkpoint


def assert_resume_is_identical(checkpoint, golden):
    for workers in (1, 3):
        with use_registry(MetricsRegistry()):
            engine = checkpoint.spec.build()
            reports = []
            steps = engine.run(
                progress=reports.append, workers=workers,
                resume_from=checkpoint,
            )
        assert steps == TICKS - checkpoint.steps
        assert render(engine.scenario, reports) == golden


class TestKilledWorker:
    @pytest.mark.parametrize(
        "at_tick", [CHUNK_TICKS + 5, 2 * CHUNK_TICKS - 1],
        ids=["mid", "boundary"],  # of a chunk
    )
    def test_sigkill_resumes_identically(self, tmp_path, golden, at_tick):
        before = _children()
        error, merged, _ = lose_a_worker(
            tmp_path, at_tick, signal.SIGKILL, before
        )
        assert "process died" in str(error)
        assert _children() <= before
        checkpoint = assert_stopped_at_last_merged_chunk(
            tmp_path, error, merged, at_tick
        )
        assert_resume_is_identical(checkpoint, golden)
        assert _children() <= before


class TestHungWorker:
    def test_sigstop_is_hung_and_reaped_then_resumes(
        self, tmp_path, golden, monkeypatch
    ):
        # The deadline shrinks only once the worker is stopped: a
        # booting worker on a busy host keeps its minute.
        before = _children()
        error, merged, stopped = lose_a_worker(
            tmp_path, 5, signal.SIGSTOP, before,
            then=lambda: monkeypatch.setattr(
                concurrency, "RESULT_DEADLINE_SECONDS", 1.0
            ),
        )
        assert "hung: no chunk result for 1s" in str(error)
        assert _children() <= before
        with pytest.raises(ProcessLookupError):
            os.kill(stopped, 0)
        monkeypatch.undo()
        checkpoint = assert_stopped_at_last_merged_chunk(
            tmp_path, error, merged, 5
        )
        assert_resume_is_identical(checkpoint, golden)


class _CrashOnWorkerBuild(Sep2017Scenario):
    """Builds fine in the coordinator, raises in any other process."""

    boot_pid = os.getpid()

    def __init__(self, *args, **kwargs):
        if os.getpid() != type(self).boot_pid:
            raise RuntimeError("worker-side scenario build exploded")
        super().__init__(*args, **kwargs)


class TestNothingToResumeFrom:
    def test_first_chunk_loss_writes_no_file(self, tmp_path):
        before = _children()
        with use_registry(MetricsRegistry()):
            with pytest.raises(ShardWorkerLost) as caught:
                fresh_engine(_CrashOnWorkerBuild).run(
                    START, END, workers=3,
                    checkpoint_every=CHUNK_TICKS, checkpoint_dir=tmp_path,
                )
        message = str(caught.value)
        assert "worker-side scenario build exploded" in message
        assert "after 0 merged steps" in message and "re-run" in message
        assert "repro resume" not in message
        assert list(tmp_path.iterdir()) == []
        assert _children() <= before

    def test_loss_without_a_plan_says_re_run(self):
        before = _children()
        reports = []

        def progress(report):
            reports.append(report)
            if len(reports) == 5:
                os.kill(min(_children() - before), signal.SIGKILL)

        with use_registry(MetricsRegistry()):
            with pytest.raises(ShardWorkerLost) as caught:
                fresh_engine().run(START, END, progress=progress, workers=3)
        message = str(caught.value)
        assert f"after {len(reports)} merged steps" in message
        assert "re-run (add --checkpoint-every" in message
        assert "repro resume" not in message
        assert _children() <= before


def test_loss_right_after_a_resume_into_another_directory_writes_there(
    tmp_path,
):
    # The resumed run has written nothing of its own when its workers
    # fail to boot: the directory the message names must hold the file.
    first, second = tmp_path / "first", tmp_path / "second"
    with use_registry(MetricsRegistry()):
        fresh_engine(_CrashOnWorkerBuild).run(
            START, START + CHUNK_TICKS * STEP,
            checkpoint_every=CHUNK_TICKS, checkpoint_dir=first,
        )
    checkpoint = latest_checkpoint(first)
    with use_registry(MetricsRegistry()):
        with pytest.raises(ShardWorkerLost) as caught:
            checkpoint.spec.build().run(
                end=END, workers=3, resume_from=checkpoint,
                checkpoint_every=CHUNK_TICKS, checkpoint_dir=second,
            )
    assert f"repro resume --from {second}" in str(caught.value)
    assert latest_checkpoint(second).steps == CHUNK_TICKS


class _DriftsInWorkers(Sep2017Scenario):
    """A replica whose controller state is not the coordinator's."""

    boot_pid = os.getpid()

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if os.getpid() != type(self).boot_pid:
            self.estate.controller.min_third_party_share = 0.5


class _ShipsShortSlices(Sep2017Scenario):
    """A replica whose global-campaign slices come home one row short."""

    boot_pid = os.getpid()

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if os.getpid() != type(self).boot_pid:
            measure = self.global_campaign.measure_slice

            def one_row_short(now, indices=None):
                block = measure(now, indices)
                short = DnsColumns()
                short.extend(block, 0, len(block) - 1)
                return short

            self.global_campaign.measure_slice = one_row_short


def assert_diverges(scenario_class, match):
    """A sharded run of ``scenario_class`` stops with the divergence
    ``match`` names and leaks no worker."""
    before = _children()
    with use_registry(MetricsRegistry()), use_tracer(EventTracer()):
        with pytest.raises(ShardDivergenceError, match=match):
            fresh_engine(scenario_class).run(START, END, workers=3)
    assert _children() <= before


class TestDivergence:
    def test_corrupt_replica_raises_naming_the_tick(self):
        assert_diverges(
            _DriftsInWorkers,
            rf"shard \d diverged from the coordinator at t={START}",
        )

    def test_short_slice_raises_naming_shard_campaign_and_tick(self):
        # A slice one row short used to be zipped against the shard's
        # probe positions: truncated, misattributed and absorbed.
        assert_diverges(
            _ShipsShortSlices,
            rf"shard \d diverged from the coordinator at t={START}: its "
            r"ripe-global slice has (\d+) rows, not its \d+ probes in order",
        )


class TestNoLeakedWorkers:
    def test_raising_shard_reaps_all_workers(self):
        # Regression: a shard failure used to leave the pool's
        # processes running.  Whatever goes wrong, run_sharded owns the
        # teardown of every process it spawned.
        before = _children()
        with use_registry(MetricsRegistry()):
            engine = fresh_engine(_CrashOnWorkerBuild)
            with pytest.raises(RuntimeError, match="worker"):
                run_sharded(engine, START, START + 8 * STEP, workers=3)
        assert _children() <= before

    def test_clean_run_reaps_all_workers(self):
        before = _children()
        with use_registry(MetricsRegistry()):
            fresh_engine().run(START, START + 8 * STEP, workers=3)
        assert _children() <= before
