"""A lost shard worker: detected, reaped, and reported as a re-run.

``run_sharded`` does not heal a worker that dies, hangs or fails — it
raises ``ShardWorkerLost`` at the last merged tick, naming that tick
and the merged step count, and says to re-run.  These tests lose
workers for real (``SIGKILL`` / ``SIGSTOP`` from the progress callback,
a worker-side exception) and hold the three things that path owes: the
typed error, a message that names where the run stopped, and no leaked
child process.  Detection itself (the coordinator's per-tick digest
check, and its check of each measurement slice against the shard's
probes) is exercised by corrupting a replica from a scenario subclass.
"""

import multiprocessing
import os
import signal

import pytest

from repro.atlas.columnar import DnsColumns
from repro.obs import EventTracer, MetricsRegistry, use_registry, use_tracer
from repro.simulation import ScenarioConfig, Sep2017Scenario, SimulationEngine
from repro.simulation import concurrency
from repro.simulation.concurrency import (
    CHUNK_TICKS,
    ShardDivergenceError,
    ShardWorkerLost,
    run_sharded,
)
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


def fresh_engine(scenario_class=Sep2017Scenario):
    return SimulationEngine(
        scenario_class(ScenarioConfig(**CFG)), step_seconds=STEP
    )


def lose_a_worker(at_tick, signum, before, then=lambda: None):
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
            fresh_engine().run(START, END, progress=progress, workers=3)
    return caught.value, len(reports), hit[0]


def assert_stopped_at_last_merged_chunk(error, merged, at_tick):
    # The chunk being merged when the signal lands completes (its
    # results are home); the next one does too if the worker had already
    # shipped it.  Either way the run stops on a chunk boundary, and the
    # message names that boundary and says to re-run.
    chunk = at_tick // CHUNK_TICKS
    assert merged in ((chunk + 1) * CHUNK_TICKS, (chunk + 2) * CHUNK_TICKS)
    message = str(error)
    assert f"stopped at t={START + merged * STEP} after {merged} merged steps" in message
    assert message.endswith("; re-run")


class TestKilledWorker:
    @pytest.mark.parametrize(
        "at_tick", [CHUNK_TICKS + 5, 2 * CHUNK_TICKS - 1],
        ids=["mid", "boundary"],  # of a chunk
    )
    def test_sigkill_is_detected_and_reaped(self, at_tick):
        before = _children()
        error, merged, _ = lose_a_worker(at_tick, signal.SIGKILL, before)
        assert "process died" in str(error)
        assert _children() <= before
        assert_stopped_at_last_merged_chunk(error, merged, at_tick)


class TestHungWorker:
    def test_sigstop_is_hung_and_reaped(self, monkeypatch):
        # The deadline shrinks only once the worker is stopped: a
        # booting worker on a busy host keeps its minute.
        before = _children()
        error, merged, stopped = lose_a_worker(
            5, signal.SIGSTOP, before,
            then=lambda: monkeypatch.setattr(
                concurrency, "RESULT_DEADLINE_SECONDS", 1.0
            ),
        )
        try:
            assert "hung: no chunk result for 1s" in str(error)
            assert _children() <= before
            with pytest.raises(ProcessLookupError):
                os.kill(stopped, 0)
            assert_stopped_at_last_merged_chunk(error, merged, 5)
        finally:
            # A worker left stopped would hang pytest at exit, in
            # multiprocessing's join of its children: end it, so that a
            # reaping regression fails above instead.  Only while it is
            # still a child of this process, so its pid is not reused.
            if stopped in _children():
                os.kill(stopped, signal.SIGCONT)
                os.kill(stopped, signal.SIGKILL)


class _CrashOnWorkerBuild(Sep2017Scenario):
    """Builds fine in the coordinator, raises in any other process."""

    boot_pid = os.getpid()

    def __init__(self, *args, **kwargs):
        if os.getpid() != type(self).boot_pid:
            raise RuntimeError("worker-side scenario build exploded")
        super().__init__(*args, **kwargs)


class TestNothingToResumeFrom:
    """No run leaves anything to resume from: a lost worker's message
    says to re-run, and names no command that would pick the run up."""

    def test_first_chunk_loss_says_re_run(self):
        before = _children()
        with use_registry(MetricsRegistry()):
            with pytest.raises(ShardWorkerLost) as caught:
                fresh_engine(_CrashOnWorkerBuild).run(START, END, workers=3)
        message = str(caught.value)
        assert "worker-side scenario build exploded" in message
        assert f"stopped at t={START} after 0 merged steps; re-run" in message
        assert "repro resume" not in message
        assert _children() <= before

    def test_loss_without_a_plan_says_re_run(self):
        # Killed inside the first chunk, after some of its ticks were
        # already reported.
        before = _children()
        error, merged, _ = lose_a_worker(4, signal.SIGKILL, before)
        message = str(error)
        assert f"after {merged} merged steps" in message
        assert message.endswith("; re-run")
        assert "repro resume" not in message
        assert _children() <= before


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
