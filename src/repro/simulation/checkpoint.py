"""Checkpoint files of the simulation engine (``RCKPT``).

Nothing a user runs writes or reads a checkpoint: a run that stops
early (a lost shard worker) is re-run, and there is no resume.  The
file remains only because the perf ledger's ungated
``simulation.checkpoint.*`` rows (``benchmarks/ledger/replay.py``)
still time a capture → save → load round trip.  ROADMAP item 3 (a),
ledger v2 without those rows, is the step that removes it.

A checkpoint is a *tick-boundary* snapshot of what a run has
accumulated: the measurement stores (:meth:`~repro.atlas.results.
MeasurementStore.dump_state`), the Netflow log and SNMP bins, the
campaign grids, the AWS sweep results, the full metrics-registry
snapshot, the engine observer's edge-detection state and the report
stream so far, plus the :class:`~repro.simulation.concurrency.
EngineSpec` that rebuilds the scenario.

File format: a :class:`~repro.container.Container` frame (magic
``RCKPT1``) whose JSON header carries the schema version (10: stores
and campaign grids keyed by name, a store's traceroutes as typed
columns, the flow log's timestamps one per run, a scenario config with
no steering mode, no Level3 switch, no ISP fan-out, no resolver
population and no fault seed, an engine spec without a timeline or a
fault schedule), the step count and the next tick, and whose payload is
the pickled :class:`Checkpoint` fields.  The container writes
atomically and verifies magic, version, length and checksum before the
payload is unpickled; every failure raises :class:`CheckpointError`.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from ..container import Container

__all__ = [
    "CheckpointError",
    "Checkpoint",
    "capture_checkpoint",
    "save_checkpoint",
    "load_checkpoint",
]

_VERSION = 10


class CheckpointError(RuntimeError):
    """A checkpoint could not be written or read."""


_CONTAINER = Container(b"RCKPT1\n", _VERSION, CheckpointError, "checkpoint")


@dataclass(frozen=True)
class Checkpoint:
    """One tick-boundary snapshot of a run (see module docstring)."""

    spec: object                 # EngineSpec — rebuilds the scenario
    start: float                 # the original run's start tick
    end: float                   # the original run's end bound
    next_tick: float             # first tick after the snapshot
    steps: int                   # ticks completed before next_tick
    step_seconds: float
    reports: tuple               # full StepReport stream so far
    state: dict                  # stores / netflow / snmp / campaign grids
    metrics: dict                # full registry snapshot at capture time
    observer: dict               # engine observer edge-detection state
    digest: Optional[str]        # state digest of the last completed tick
    version: int = _VERSION


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
    ``start``: its length is the step count and its last entry yields
    the state digest of the last completed tick.
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
    """Read and validate one checkpoint file.

    Torn, truncated or corrupted files raise :class:`CheckpointError`
    (magic, header, version, length and checksum are all verified
    before the payload is unpickled) rather than decoding garbage.
    """
    path = Path(path)
    _header, payload = _CONTAINER.read(path)
    try:
        return Checkpoint(**pickle.loads(payload))
    except Exception as exc:  # pickle raises a zoo of error types
        raise CheckpointError(f"{path}: cannot decode payload: {exc}") from exc
