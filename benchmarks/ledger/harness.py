"""Measurement plumbing shared by the ledger's workload modules.

Nothing here knows about a particular workload: percentiles, block
summaries, CPU/RSS accounting over the harness process and its reaped
children, the in-memory span recorder of the traced run, and the
:class:`Outcome` every workload hands back to ``run.py``.
"""

from __future__ import annotations

import json
import os
import resource
import socket
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]
OUT_DIR = LEDGER_DIR / "out"

# Timing metrics of the edge workloads are medians over this many
# equal-work blocks: a multi-second slow phase of the shared host then
# spoils a few blocks, not the run (see README, "Noise findings").
BLOCKS = 20

# Work is sized so the timed region lasts about this long at
# ``--seconds 25``; other ``--seconds`` values scale the item counts.
NOMINAL_SECONDS = 25.0


@dataclass
class Outcome:
    """What one workload run produced.

    ``e2e`` and ``layers`` are keyed by the metric names of
    ``BENCHMARK.json``; ``raw`` holds the timing metrics before the
    host-speed correction; ``exact`` holds the counts that must repeat
    bit-for-bit across two same-seed runs; ``inputs`` fingerprints the
    seed-generated inputs (it must differ across seeds).
    """

    workload: str
    attempted: int
    failed: int
    e2e: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    exact: dict = field(default_factory=dict)
    inputs: str = ""
    raw: dict = field(default_factory=dict)
    block_spread: dict = field(default_factory=dict)
    host_speed: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (``0 <= q <= 1``) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile range over the median — the driver's noise measure."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0


def cpu_seconds() -> float:
    """User+system CPU of this process plus every child reaped so far."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def children_cpu_seconds() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def peak_rss_mb(child_processes: int = 0) -> float:
    """Peak resident set: this process + ``n`` × the largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kid = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child_processes * kid) / 1024.0


def median_setup(build, repeats: int):
    """Run ``build()`` ``repeats`` times; (median seconds, last result).

    Set-up is short next to the timed region, so one sample of it is
    mostly host noise; the median of a few is what ``setup_s`` reports.
    """
    seconds = []
    result = None
    for _ in range(max(1, repeats)):
        result = None  # drop the previous world before building the next
        started = time.perf_counter()
        result = build()
        seconds.append(time.perf_counter() - started)
    return statistics.median(seconds), result


class Spans:
    """Harness-side spans of the traced run, kept in memory.

    One tuple per span: ``(item, name, parent, start, end)``; spans of
    one item share its id and name their parent span.  ``dump`` writes
    them out when the run ends; nothing is written while timing.
    """

    def __init__(self) -> None:
        self.rows: list[tuple] = []

    def add(self, item: int, name: str, parent: Optional[str],
            start: float, end: float) -> None:
        self.rows.append((item, name, parent, start, end))

    def coverage(self, root: str) -> float:
        """Share of root-span time covered by the spans directly below it.

        A root's self time — its duration minus its children's — is the
        part of an item no layer span explains.
        """
        root_total = child_total = 0.0
        for _item, name, parent, start, end in self.rows:
            if name == root:
                root_total += end - start
            elif parent == root:
                child_total += end - start
        return child_total / root_total if root_total else 0.0

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for item, name, parent, start, end in self.rows:
                handle.write(json.dumps(
                    {"item": item, "span": name, "parent": parent,
                     "start": start, "end": end}
                ) + "\n")


# CPU time the host-speed kernel takes on the reference host in its
# ordinary state.  Only a scale: it makes speed-corrected times read
# like the measured ones there; comparing two commits never sees it.
KERNEL_REF_MS = 7.0
_PING = b"x" * 64


class HostSpeed:
    """A fixed-work kernel sampled throughout a run: how fast is the host?

    Pure-Python arithmetic plus socketpair round trips, ~7 ms of work
    that no change to the repository can make faster or slower.  Every
    workload runs it between the blocks (or replay windows) of its
    timed region, outside what is being timed, and records the
    kernel's *CPU* time: that grows when the host executes slower —
    which is what moves every timing metric here by ±30 % from one
    minute to the next — but not when the kernel merely waits for a
    core, so it also works while ``replay_sharded``'s workers are busy.
    :meth:`correction` turns the samples' mean into the factor the
    timing metrics are multiplied by.  See README, "Noise findings".
    """

    def __init__(self) -> None:
        self._near, self._far = socket.socketpair()
        self.cpu_samples: list[float] = []
        self.wall_samples: list[float] = []
        self.wall = 0.0
        self.cpu = 0.0

    def sample(self) -> None:
        """Run the kernel once and record what it cost."""
        cpu0 = time.process_time()
        began = time.perf_counter()
        acc = 0
        for i in range(120_000):
            acc += i * i % 7
        near, far = self._near, self._far
        for _ in range(300):
            near.send(_PING)
            far.recv(64)
            far.send(_PING)
            near.recv(64)
        wall = time.perf_counter() - began
        cpu = time.process_time() - cpu0
        self.wall_samples.append(wall)
        self.cpu_samples.append(cpu)
        self.wall += wall
        self.cpu += cpu

    def close(self) -> None:
        self._near.close()
        self._far.close()

    def correction(self) -> float:
        """Factor that rescales a measured time to the reference speed."""
        return KERNEL_REF_MS / (statistics.mean(self.cpu_samples) * 1e3)

    def summary(self) -> dict:
        return {
            "correction": self.correction(),
            "kernel_cpu_ms": [round(x * 1e3, 3) for x in self.cpu_samples],
            "kernel_wall_ms": [round(x * 1e3, 3) for x in self.wall_samples],
        }


def counter_total(registry, name: str) -> float:
    """A counter family summed over all its label sets (0 if absent)."""
    family = registry.get(name)
    if family is None:
        return 0.0
    return float(sum(child.value for _labels, child in family.children()))


def steal_ticks() -> tuple[float, float]:
    """(steal, total) jiffies from ``/proc/stat``; zeros where absent."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()[1:]
    except OSError:
        return 0.0, 0.0
    numbers = [float(x) for x in fields]
    steal = numbers[7] if len(numbers) > 7 else 0.0
    return steal, sum(numbers[:8])


def scratch_dir(label: str) -> Path:
    """A per-process directory under ``out/`` (inside the checkout)."""
    path = OUT_DIR / f"{label}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path
