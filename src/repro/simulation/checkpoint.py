"""Deterministic checkpoint/resume for the simulation engine (``RCKPT``).

A checkpoint is a *tick-boundary* snapshot of everything a run has
accumulated that cannot be recomputed for free: the measurement stores
(as their sealed ``RSEG1`` columnar payloads, reusing the spill
machinery), the Netflow log and SNMP bins, the campaign grids, the AWS
sweep results, the full metrics-registry snapshot, the engine
observer's edge-detection state and the report stream so far.

What a checkpoint deliberately does **not** carry is the world state
itself — the Meta-CDN controller and the exposure controllers.  That
state is a pure function of the tick sequence, so resume *replays* it:
:func:`restore_run_state` brings a freshly built scenario to the
checkpoint's tick boundary with
:meth:`~repro.simulation.engine.SimulationEngine.replay_state` (no
measuring, no traffic, no telemetry — the cheap path), then verifies
the replayed state digest against the one recorded at capture time.  A
resumed run therefore continues **bit-identically**: the golden
``RunSummary`` of checkpoint→kill→resume equals
the uninterrupted run's, at any ``workers=N``.

Two documented caveats, both invisible to the golden contracts:
resolver-cache hit/miss *metrics* can differ slightly right after the
resume boundary (probe resolver caches restart cold; every record that
could change a measurement *result* has either expired within one
campaign interval or is static), and post-resume AWS ``cache_verdicts``
may differ (the HTTP edge caches restart cold; the AWS sweep's
measurement *count* is unchanged).

File format (``ckpt-<steps>.rckpt``): a :class:`~repro.container.Container`
frame (magic ``RCKPT1``) whose JSON header carries the schema version
(10: stores and campaign grids keyed by name, a store's traceroutes as
typed columns, the flow log's timestamps one per run, a scenario config
with no steering mode, no Level3 switch, no ISP fan-out, no resolver
population and no fault seed, an engine spec without a timeline or a
fault schedule), the step count and the
next tick, and whose payload is the pickled :class:`Checkpoint` fields.
The container writes atomically and verifies magic, version, length and
checksum before the payload is unpickled; every failure raises
:class:`CheckpointError` — :func:`latest_checkpoint` then falls back to
the newest *valid* file.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

from ..container import Container
from ..obs import snapshot_delta

__all__ = [
    "CheckpointError",
    "Checkpoint",
    "CheckpointPlan",
    "capture_checkpoint",
    "restore_run_state",
    "save_checkpoint",
    "load_checkpoint",
    "latest_checkpoint",
    "checkpoint_path",
]

_VERSION = 10


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, read or restored."""


_CONTAINER = Container(b"RCKPT1\n", _VERSION, CheckpointError, "checkpoint")


@dataclass(frozen=True)
class Checkpoint:
    """One tick-boundary snapshot of a run (see module docstring)."""

    spec: object                 # EngineSpec — rebuilds the scenario
    start: float                 # the original run's start tick
    end: float                   # the original run's end bound
    next_tick: float             # first tick the resumed run executes
    steps: int                   # ticks completed before next_tick
    step_seconds: float
    reports: tuple               # full StepReport stream so far
    state: dict                  # stores / netflow / snmp / campaign grids
    metrics: dict                # full registry snapshot at capture time
    observer: dict               # engine observer edge-detection state
    digest: Optional[str]        # state digest of the last completed tick
    version: int = _VERSION


def checkpoint_path(directory: Union[str, Path], steps: int) -> Path:
    """Where the checkpoint after ``steps`` completed ticks lives."""
    return Path(directory) / f"ckpt-{steps:08d}.rckpt"


def capture_checkpoint(
    engine,
    *,
    start: float,
    end: float,
    next_tick: float,
    reports: Sequence,
) -> Checkpoint:
    """Snapshot ``engine``'s accumulated run state at a tick boundary.

    ``reports`` must be the full :class:`StepReport` stream since
    ``start`` — its length is the step count and its last entry yields
    the state digest the resume replay is verified against.
    """
    from .concurrency import EngineSpec, state_digest

    scenario = engine.scenario
    obs = engine._obs
    reports = tuple(reports)
    digest = None
    if reports:
        last = reports[-1]
        digest = state_digest(last.now, last.demand_gbps, last.operator_gbps)
    state = {
        "stores": {store.name: store.dump_state() for store in scenario.stores},
        "netflow": {
            "records": scenario.netflow.records[:],
            "offered": scenario.netflow.total_offered_bytes,
        },
        "snmp": scenario.snmp.snapshot_bins(),
        "next_due": {
            campaign.name: campaign.cadence.next_due
            for campaign in scenario.campaigns
        },
        "aws_results": list(scenario.aws_campaign.results),
    }
    observer = {
        "offload_on": tuple(
            sorted(obs._offload_on, key=lambda region: region.value)
        ),
        "saturated": tuple(sorted(obs._saturated)),
        "peak_eu": obs._peak_eu,
    }
    return Checkpoint(
        spec=EngineSpec.from_engine(engine),
        start=start,
        end=end,
        next_tick=next_tick,
        steps=len(reports),
        step_seconds=engine.step_seconds,
        reports=reports,
        state=state,
        metrics=obs.metrics.snapshot(),
        observer=observer,
        digest=digest,
    )


def save_checkpoint(checkpoint: Checkpoint, path: Union[str, Path]) -> Path:
    """Write ``checkpoint`` to ``path`` atomically (tmp + fsync + rename)."""
    path = Path(path)
    payload = pickle.dumps(
        {name: getattr(checkpoint, name) for name in checkpoint.__dataclass_fields__},
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    _CONTAINER.write(
        path,
        {"steps": checkpoint.steps, "next_tick": checkpoint.next_tick},
        [payload],
    )
    return path


def load_checkpoint(path: Union[str, Path]) -> Checkpoint:
    """Read and validate one checkpoint file (or the latest in a dir).

    Torn, truncated or corrupted files raise :class:`CheckpointError`
    (magic, header, version, length and checksum are all verified
    before the payload is unpickled) rather than resuming from garbage.
    """
    path = Path(path)
    if path.is_dir():
        return latest_checkpoint(path)
    _header, payload = _CONTAINER.read(path)
    try:
        return Checkpoint(**pickle.loads(payload))
    except Exception as exc:  # pickle raises a zoo of error types
        raise CheckpointError(f"{path}: cannot decode payload: {exc}") from exc


def latest_checkpoint(directory: Union[str, Path]) -> Checkpoint:
    """The newest *valid* checkpoint in ``directory``.

    Corrupt files (e.g. torn by the crash that makes the resume
    necessary) are skipped; if no file validates, the error lists what
    was wrong with each candidate.
    """
    directory = Path(directory)
    candidates = sorted(directory.glob("ckpt-*.rckpt"), reverse=True)
    failures: list[str] = []
    for candidate in candidates:
        try:
            return load_checkpoint(candidate)
        except CheckpointError as exc:
            failures.append(str(exc))
    detail = "; ".join(failures) if failures else "no ckpt-*.rckpt files found"
    raise CheckpointError(f"no valid checkpoint in {directory}: {detail}")


# ----------------------------------------------------------------------
# capture/restore orchestration
# ----------------------------------------------------------------------


@dataclass
class CheckpointPlan:
    """A running checkpoint cadence: where, how often, and what so far.

    ``reports`` accumulates the full report stream (seeded from the
    checkpoint on resume), so every snapshot written carries the whole
    run from ``origin_start`` — a later resume never needs the earlier
    checkpoint files.
    """

    directory: Path
    every: int
    origin_start: float
    origin_end: float
    reports: list = field(default_factory=list)
    written: int = 0   # step count at the last write

    def __post_init__(self) -> None:
        if self.every < 1:
            raise ValueError("checkpoint cadence must be >= 1 ticks")
        self.directory = Path(self.directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def maybe_write(
        self, engine, next_tick: float, force: bool = False
    ) -> Optional[Path]:
        """Write a checkpoint if the cadence (or ``force``) says so."""
        done = len(self.reports)
        if not done:
            return None
        if not force and done - self.written < self.every:
            return None
        path = checkpoint_path(self.directory, done)
        if force and done == self.written and path.exists():
            # Already on disk — unless this run resumed into another
            # directory and has written nothing of its own yet.
            return path
        checkpoint = capture_checkpoint(
            engine,
            start=self.origin_start,
            end=self.origin_end,
            next_tick=next_tick,
            reports=self.reports,
        )
        save_checkpoint(checkpoint, path)
        self.written = done
        engine.run_stats["checkpoints_written"] += 1
        return path


def restore_run_state(engine, checkpoint: Checkpoint) -> tuple:
    """Restore ``checkpoint`` into a freshly built ``engine``.

    Replays the deterministic world state tick by tick (campaign grids
    advance, nothing is measured), verifies the replayed state digest
    against the captured one, then splices the accumulated run products
    back in: stores, Netflow/SNMP, AWS results, metrics and the
    observer's edge state.  Returns the tuple of replayed ticks (the
    warm-up sequence sharded workers must mirror).
    """
    from .concurrency import EngineSpec, state_digest

    scenario = engine.scenario
    obs = engine._obs
    spec = EngineSpec.from_engine(engine)
    if spec.scenario_class is not checkpoint.spec.scenario_class:
        raise CheckpointError(
            f"cannot resume: engine scenario {spec.scenario_class.__name__} "
            f"!= checkpoint scenario "
            f"{checkpoint.spec.scenario_class.__name__}"
        )
    if spec.config != checkpoint.spec.config:
        raise CheckpointError(
            "cannot resume: the engine's scenario config differs from the "
            "checkpoint's (a resumed run must replay the same world)"
        )
    if engine.step_seconds != checkpoint.step_seconds:
        raise CheckpointError(
            f"cannot resume: step_seconds {engine.step_seconds:g} != "
            f"checkpoint's {checkpoint.step_seconds:g}"
        )
    if not scenario.is_fresh():
        raise CheckpointError(
            "resume requires a freshly constructed scenario: the replay "
            "would double-count state this engine already accumulated"
        )

    ticks: list[float] = []
    now = checkpoint.start
    while now < checkpoint.next_tick:
        ticks.append(now)
        now += engine.step_seconds
    if len(ticks) != checkpoint.steps:
        raise CheckpointError(
            f"replay would cover {len(ticks)} ticks but the checkpoint "
            f"recorded {checkpoint.steps} (step grid mismatch)"
        )

    registry = obs.metrics
    base = registry.snapshot()
    last = engine.replay_state(ticks)
    if checkpoint.digest is not None:
        assert last is not None
        replayed = state_digest(*last)
        if replayed != checkpoint.digest:
            raise CheckpointError(
                f"replayed world state diverged from the checkpoint at "
                f"t={last[0]}: digest {replayed} != {checkpoint.digest} "
                "(different code or config than the original run)"
            )
    state = checkpoint.state
    next_due = state["next_due"]
    for campaign in scenario.dns_campaigns:
        if campaign.cadence.next_due != next_due[campaign.name]:
            raise CheckpointError(
                f"replayed {campaign.name} campaign grid "
                f"{campaign.cadence.next_due!r} != checkpoint's "
                f"{next_due[campaign.name]!r}"
            )

    # Metrics: the registry now holds base + replay_delta; absorbing
    # (checkpoint − replay_delta) lands it on base + checkpoint — the
    # replay's incidental accumulation cancels exactly against its
    # share inside the snapshot.
    replay_delta = snapshot_delta(registry.snapshot(), base)
    registry.absorb_snapshot(snapshot_delta(checkpoint.metrics, replay_delta))

    for store in scenario.stores:
        store.restore_state(state["stores"][store.name])
    scenario.netflow.absorb(
        state["netflow"]["records"], state["netflow"]["offered"]
    )
    scenario.snmp.absorb(state["snmp"])
    # The sharded campaigns' grids were just verified equal; the other
    # two never fired during the replay.
    for campaign in scenario.campaigns:
        campaign.cadence.next_due = next_due[campaign.name]
    scenario.aws_campaign.results.extend(state["aws_results"])

    observer = checkpoint.observer
    obs._offload_on = set(observer["offload_on"])
    obs._saturated = set(observer["saturated"])
    obs._peak_eu = observer["peak_eu"]
    return tuple(ticks)
