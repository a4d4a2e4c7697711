"""Netflow collection with packet sampling.

The ISP collected ~300 billion Netflow records over the measurement
week.  Netflow is *sampled* (typically 1 in N packets), so absolute
volumes from flow records alone are biased; the paper corrects this by
scaling flow volumes with the SNMP byte counters per link
(Section 5.3).  The reproduction implements both halves: a sampling
collector here, the SNMP-scaled estimator in
:mod:`repro.isp.snmp` / :mod:`repro.analysis.offload`.

The collector's log is a :class:`FlowLog`: typed columns, one row per
exported flow and one timestamp per run of flows that share it, no
Python object per row.  A replay exports hundreds of
thousands of flows and keeps them to the end, and a heap of that many
live dataclasses costs more in cyclic-collector passes than the flows
cost to generate — so a :class:`FlowRecord` exists only while a reader
holds one, and the Figure 7/8 analyses read an exact hourly
:meth:`FlowLog.rollup` instead of every flow.
"""

from __future__ import annotations

import math
import operator
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence, Union

from ..dns.policies import stable_fraction
from ..net.ipv4 import IPv4Address
from ..obs import get_registry

__all__ = ["FlowRecord", "FlowLog", "NetflowCollector"]

# Addresses are stored as ``array('I')`` values: that must be 32 bits.
if array("I").itemsize != 4:  # pragma: no cover - no such platform in CI
    raise ImportError("repro.isp.netflow needs a 4-byte array('I')")

#: Link ids are ``array('H')`` indexes into the log's interned link table.
MAX_LINKS = 1 << 16

#: A log's state, in :meth:`FlowLog.__getstate__` order, with typecodes:
#: two per-run columns, then four per-row ones.
_COLUMNS = (
    ("block_times", "d"), ("block_ends", "Q"),
    ("srcs", "I"), ("dsts", "I"), ("sizes", "q"), ("link_ids", "H"),
)


@dataclass(frozen=True)
class FlowRecord:
    """One (sampled) flow record as exported by a border router."""

    timestamp: float
    src: IPv4Address
    dst: IPv4Address
    bytes: int
    link_id: str

    def __post_init__(self) -> None:
        if self.bytes <= 0:
            raise ValueError("flow bytes must be positive")


def _check_lengths(*columns: Sequence) -> None:
    """Refuse a block whose columns differ in length (``ValueError``)."""
    if len(set(map(len, columns))) > 1:
        raise ValueError("flow columns differ in length")


class FlowLog:
    """An append-only, time-ordered columnar block of flow records.

    Reads like the list of records it replaces — ``len``, truth,
    iteration, indexing, slicing, ``==`` against another log or a
    tuple/list of records — but holds typed arrays and an interned link
    table, and builds a :class:`FlowRecord` only for the reader that
    asks for one.  Self-contained: a block pickles as its arrays plus
    the link names, so a slice can cross a process boundary and be
    absorbed column-to-column by :meth:`extend`.

    Sources, destinations, sizes and link ids are one entry per row.
    Timestamps are run-length encoded: a run is the rows of one
    timestamp (an engine tick exports hundreds of flows at one instant),
    stored as ``block_times[i]`` and the row ``block_ends[i]`` it ends
    before.  Run timestamps are finite and strictly increasing, so the
    encoding of a given row sequence is unique and ``==`` compares the
    arrays as they are.  An append that goes back in time, or whose
    timestamp is not finite, is refused with ``ValueError``.
    """

    __slots__ = (
        "block_times", "block_ends", "srcs", "dsts", "sizes", "link_ids",
        "links", "_link_index",
    )

    def __init__(self, records: Iterable[FlowRecord] = ()) -> None:
        self.block_times = array("d")
        self.block_ends = array("Q")
        self.srcs = array("I")
        self.dsts = array("I")
        self.sizes = array("q")
        self.link_ids = array("H")
        self.links: list[str] = []
        self._link_index: dict[str, int] = {}
        for record in records:
            self.append(record)

    # ----- writing ------------------------------------------------------

    def _intern(self, link_ids: Iterable[str]) -> None:
        """Intern every link of ``link_ids`` new to the table, in
        first-appearance order, or none: a table that would pass
        ``MAX_LINKS`` names raises ``ValueError`` as it was."""
        index = self._link_index
        fresh = [link_id for link_id in dict.fromkeys(link_ids) if link_id not in index]
        if len(self.links) + len(fresh) > MAX_LINKS:
            raise ValueError(f"a flow log holds at most {MAX_LINKS} distinct links")
        for link_id in fresh:
            index[link_id] = len(self.links)
            self.links.append(link_id)

    def _check_order(self, timestamp: float) -> None:
        """Refuse rows at ``timestamp`` if it is older than the last run's."""
        if self.block_times and timestamp < self.block_times[-1]:
            raise ValueError("flows must be appended in time order")

    def _end_run(self, timestamp: float) -> None:
        """Close the rows appended since the last run as a run at ``timestamp``.

        A timestamp equal to the last run's extends that run.
        """
        times, ends = self.block_times, self.block_ends
        if times and times[-1] == timestamp:
            ends[-1] = len(self.srcs)
        else:
            times.append(timestamp)
            ends.append(len(self.srcs))

    def append_block(
        self,
        timestamp: float,
        srcs: Sequence[int],
        dsts: Sequence[int],
        sizes: Sequence[int],
        link_ids: Sequence[str],
    ) -> None:
        """Append the flows of one timestamp, given as four equal-length columns.

        Row ``i`` is the flow ``(srcs[i], dsts[i], sizes[i], link_ids[i])``,
        addresses as their integer values.  All or nothing: the columns
        are built before the log is touched, so columns of different
        lengths, a block that goes back in time, a timestamp that is not
        finite, a size that is not positive or a value its column cannot
        hold (``TypeError`` / ``OverflowError``) raises with every row of
        the log as it was.
        """
        if not math.isfinite(timestamp):  # a NaN would pass every order check
            raise ValueError("flow timestamps must be finite")
        _check_lengths(srcs, dsts, sizes, link_ids)
        if not srcs:
            return
        self._check_order(timestamp)
        if min(sizes) <= 0:
            raise ValueError("flow bytes must be positive")
        new_srcs, new_dsts = array("I", srcs), array("I", dsts)
        new_sizes = array("q", sizes)
        self._intern(link_ids)
        new_links = array("H", map(self._link_index.__getitem__, link_ids))
        self.srcs.extend(new_srcs)
        self.dsts.extend(new_dsts)
        self.sizes.extend(new_sizes)
        self.link_ids.extend(new_links)
        self._end_run(timestamp)

    def append_values(
        self, timestamp: float, src: int, dst: int, size: int, link_id: str
    ) -> None:
        """Append one flow from its field values (addresses as ints)."""
        self.append_block(timestamp, (src,), (dst,), (size,), (link_id,))

    def append(self, record: FlowRecord) -> None:
        """Append one record."""
        self.append_values(
            record.timestamp, record.src.value, record.dst.value,
            record.bytes, record.link_id,
        )

    def extend(self, records: Union["FlowLog", Iterable[FlowRecord]]) -> None:
        """Append a block column-to-column, or any iterable of records.

        All or nothing: a block (or a record somewhere in the iterable)
        that goes back in time, or whose timestamp is not finite, raises
        before this log changes.  Link ids are remapped when the two
        link tables differ; a block whose first timestamp equals this
        log's last joins that run.
        """
        block = records if isinstance(records, FlowLog) else FlowLog(records)
        if not block:
            return
        self._check_order(block.block_times[0])
        self._intern(block.links)
        remap = [self._link_index[link_id] for link_id in block.links]
        if remap == list(range(len(remap))):
            self.link_ids.extend(block.link_ids)
        else:
            self.link_ids.extend(array("H", map(remap.__getitem__, block.link_ids)))
        base = len(self.srcs)
        last = self.block_times[-1] if self.block_times else None
        joins = last == block.block_times[0]
        times = block.block_times[joins:]
        ends = array("Q", [base + end for end in block.block_ends])
        self.srcs.extend(block.srcs)
        self.dsts.extend(block.dsts)
        self.sizes.extend(block.sizes)
        if joins:
            self.block_ends[-1] = ends.pop(0)
        self.block_times.extend(times)
        self.block_ends.extend(ends)

    # ----- reading as a sequence ----------------------------------------

    def __len__(self) -> int:
        return len(self.srcs)

    def runs(
        self, lo: int = 0, hi: Optional[int] = None
    ) -> Iterator[tuple[float, int, int]]:
        """``(timestamp, start, stop)`` for each run of rows ``lo <= row < hi``.

        Rows ``start <= row < stop`` all carry ``timestamp``; runs come
        in row order, clipped to ``[lo, hi)``, never empty.
        """
        ends = self.block_ends
        hi = len(self) if hi is None else hi
        if lo >= hi:
            return
        block = bisect_right(ends, lo)
        start = lo
        for timestamp, end in zip(self.block_times[block:], ends[block:]):
            stop = min(end, hi)
            yield timestamp, start, stop
            if stop == hi:
                return
            start = stop

    def rows(self, lo: int, hi: int) -> Iterator[FlowRecord]:
        """The records of rows ``lo <= row < hi``, built one at a time."""
        links = self.links
        addresses: dict[int, IPv4Address] = {}  # one object per distinct value

        def address(value: int) -> IPv4Address:
            found = addresses.get(value)
            if found is None:
                found = addresses[value] = IPv4Address(value)
            return found

        for timestamp, start, stop in self.runs(lo, hi):
            for src, dst, size, link in zip(
                self.srcs[start:stop], self.dsts[start:stop],
                self.sizes[start:stop], self.link_ids[start:stop],
            ):
                yield FlowRecord(
                    timestamp, address(src), address(dst), size, links[link]
                )

    def __iter__(self) -> Iterator[FlowRecord]:
        return self.rows(0, len(self))

    def _like(self) -> "FlowLog":
        """An empty block that shares this log's link numbering."""
        block = FlowLog()
        block.links = list(self.links)
        block._link_index = dict(self._link_index)
        return block

    def __getitem__(self, key):
        if isinstance(key, slice):
            if key.step is not None and key.step < 1:
                raise ValueError("a flow log is time-ordered: slice forwards")
            lo, hi, step = key.indices(len(self))
            block = self._like()
            block.srcs = self.srcs[key]
            block.dsts = self.dsts[key]
            block.sizes = self.sizes[key]
            block.link_ids = self.link_ids[key]
            # A run keeps the rows of range(lo, hi, step) below its end.
            for timestamp, _, stop in self.runs(lo, hi):
                taken = -(-(stop - lo) // step)
                if taken > (block.block_ends[-1] if block.block_ends else 0):
                    block.block_times.append(timestamp)
                    block.block_ends.append(taken)
            return block
        src = self.srcs[key]  # IndexError / TypeError as a list raises them
        row = key + len(self) if key < 0 else key
        return FlowRecord(
            self.block_times[bisect_right(self.block_ends, row)],
            IPv4Address(src),
            IPv4Address(self.dsts[key]),
            self.sizes[key],
            self.links[self.link_ids[key]],
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, FlowLog):
            if not (
                self.block_times == other.block_times
                and self.block_ends == other.block_ends
                and self.srcs == other.srcs and self.dsts == other.dsts
                and self.sizes == other.sizes
            ):
                return False
            # By link *name*: two logs of the same flows may have
            # interned their links in different orders.
            if self.links == other.links:
                return self.link_ids == other.link_ids
            mine, theirs = self.links, other.links
            return all(
                mine[a] == theirs[b] for a, b in zip(self.link_ids, other.link_ids)
            )
        if isinstance(other, (tuple, list)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        return f"FlowLog({len(self)} flows, {len(self.links)} links)"

    def __getstate__(self) -> tuple:
        return (
            self.block_times, self.block_ends, self.srcs, self.dsts, self.sizes,
            self.link_ids, self.links,
        )

    def __setstate__(self, state: tuple) -> None:
        """Restore a pickled block, checking it first.

        A shard worker's chunk and a loaded checkpoint both arrive
        through here, so a state that breaks the log's invariants is refused
        with ``ValueError``: each column an array of its typecode, the
        per-row ones all of one length, run timestamps finite and
        strictly increasing, run ends strictly increasing up to the row
        count, link ids inside a table of distinct names, sizes positive.
        """
        if not isinstance(state, tuple) or len(state) != len(_COLUMNS) + 1:
            raise ValueError("a flow log state is six columns and a link table")
        *columns, links = state
        for (name, typecode), column in zip(_COLUMNS, columns):
            if not isinstance(column, array) or column.typecode != typecode:
                raise ValueError(f"flow log column {name} is not an array({typecode!r})")
        times, ends, srcs, dsts, sizes, link_ids = columns
        if len({len(column) for column in columns[2:]}) != 1 or len(times) != len(ends):
            raise ValueError("flow log columns differ in length")
        if (
            not isinstance(links, list)
            or not all(isinstance(link_id, str) for link_id in links)
            or len(set(links)) != len(links)
        ):
            raise ValueError("flow log link table is not a list of distinct names")
        if not all(map(math.isfinite, times)):
            raise ValueError("flow log timestamps must be finite")
        if not all(map(operator.lt, times, times[1:])):
            raise ValueError("flow log run timestamps do not strictly increase")
        if not all(map(operator.lt, chain((0,), ends), ends)):
            raise ValueError("flow log run ends do not increase")
        if (ends[-1] if ends else 0) != len(srcs):
            raise ValueError("flow log runs do not end at its row count")
        if link_ids and max(link_ids) >= len(links):
            raise ValueError("flow log link id outside its link table")
        if sizes and min(sizes) <= 0:
            raise ValueError("flow bytes must be positive")
        (
            self.block_times, self.block_ends, self.srcs, self.dsts, self.sizes,
            self.link_ids,
        ) = columns
        self.links = links
        self._link_index = {link_id: i for i, link_id in enumerate(links)}

    # ----- reading the columns ------------------------------------------

    def _first_row_at(self, timestamp: float) -> int:
        """The first row whose timestamp is ``>= timestamp``."""
        block = bisect_left(self.block_times, timestamp)
        return self.block_ends[block - 1] if block else 0

    def span(self, start: float, end: float) -> tuple[int, int]:
        """The row range ``[lo, hi)`` with ``start <= timestamp < end``."""
        return self._first_row_at(start), self._first_row_at(end)

    def bytes_between(self, link_id: str, start: float, end: float) -> int:
        """Bytes of the flows on ``link_id`` with ``start <= timestamp < end``."""
        link = self._link_index.get(link_id)
        if link is None:
            return 0
        lo, hi = self.span(start, end)
        return sum(
            size
            for flow_link, size in zip(self.link_ids[lo:hi], self.sizes[lo:hi])
            if flow_link == link
        )

    def bytes_by_source(self) -> dict[int, int]:
        """Bytes summed per distinct source address value."""
        totals: dict[int, int] = {}
        for src, size in zip(self.srcs, self.sizes):
            totals[src] = totals.get(src, 0) + size
        return totals

    def rollup(self, bin_seconds: float) -> "FlowLog":
        """One record per (time bin, source, link), bytes summed.

        What an aggregating collector exports: bins ascending, each
        stamped with its start ``floor(t / bin_seconds) * bin_seconds``,
        groups inside a bin in first-appearance order (carrying their
        first flow's destination), bytes summed as ``int``.

        An analysis that bins on a whole multiple of ``bin_seconds`` and
        sums bytes per (bin, anything derived from source and link)
        reads the same numbers off the roll-up as off every flow, in the
        same first-appearance order, as long as its sums stay below
        2**53 (float accumulation of integers is then exact in any
        order) and timestamps sit on a grid far coarser than a float
        ulp — the engine's are whole seconds.  A bin that does not
        divide the analysis bin moves flows across its edges.
        """
        if bin_seconds <= 0:
            raise ValueError("bin_seconds must be positive")
        out = self._like()
        out_srcs, out_dsts, out_sizes, out_links = (
            out.srcs, out.dsts, out.sizes, out.link_ids
        )
        srcs, dsts, sizes, link_ids = self.srcs, self.dsts, self.sizes, self.link_ids
        groups: dict[int, int] = {}  # (src, link) of the open bin -> out row

        def group(run_srcs, run_dsts, run_links, run_sizes) -> None:
            for src, dst, link, size in zip(run_srcs, run_dsts, run_links, run_sizes):
                key = (src << 16) | link
                out_row = groups.get(key)
                if out_row is None:
                    groups[key] = len(out_sizes)
                    out_srcs.append(src)
                    out_dsts.append(dst)
                    out_sizes.append(size)
                    out_links.append(link)
                else:
                    out_sizes[out_row] += size

        # The held run: the (src, dst, link) columns of a run of the open
        # bin, and its sizes with those of every later run of the bin
        # whose src and link columns equal it row by row summed in.  Such
        # a run adds only to groups the held run opens, so the grouping
        # walks the held run once, for all of them.
        held = held_sizes = None
        bin_start = None
        for timestamp, lo, hi in self.runs():
            start = math.floor(timestamp / bin_seconds) * bin_seconds
            run_srcs, run_links = srcs[lo:hi], link_ids[lo:hi]
            if start == bin_start and run_srcs == held[0] and run_links == held[2]:
                held_sizes = list(map(operator.add, held_sizes, sizes[lo:hi]))
                continue
            if held is not None:
                group(*held, held_sizes)
            if start != bin_start:
                if bin_start is not None:
                    out._end_run(bin_start)
                bin_start = start
                groups.clear()
            held, held_sizes = (run_srcs, dsts[lo:hi], run_links), sizes[lo:hi]
        if held is not None:
            group(*held, held_sizes)
            out._end_run(bin_start)
        return out


class NetflowCollector:
    """Samples synthetic flows out of aggregate per-link traffic.

    ``sampling_rate`` is the classic 1-in-N: an aggregate of B bytes on
    a link decomposes into flows of ``flow_bytes`` each, of which a
    deterministic 1/N are exported.  Determinism (a stable hash over
    link, time and flow index) keeps runs reproducible while remaining
    statistically faithful: expected exported volume is B/N.

    Traffic is fed in time order; the log refuses (``ValueError``) a
    flow older than the last one it holds or has handed over
    (:meth:`drain`).
    """

    def __init__(self, sampling_rate: int = 1000, flow_bytes: int = 40 * 1024 * 1024):
        if sampling_rate < 1:
            raise ValueError("sampling_rate must be >= 1")
        if flow_bytes <= 0:
            raise ValueError("flow_bytes must be positive")
        self.sampling_rate = sampling_rate
        self.flow_bytes = flow_bytes
        self._log = FlowLog()
        self._drained_until = -math.inf  # last timestamp handed over by drain()
        self.total_offered_bytes = 0
        registry = get_registry()
        self._m_records = registry.counter(
            "netflow_records_total", "Flow records exported by the collector"
        )
        self._m_offered = registry.counter(
            "netflow_offered_bytes_total",
            "Aggregate bytes offered to the flow collector",
        )

    def observe_block(
        self,
        timestamp: float,
        srcs: Sequence[int],
        dsts: Sequence[int],
        sizes: Sequence[int],
        link_ids: Sequence[str],
    ) -> int:
        """Export the flows of one tick, given as four columns.

        What the simulation engine hands over at the end of a tick:
        row ``i`` is ``(srcs[i], dsts[i], sizes[i], link_ids[i])``,
        addresses as their integer values.  At rate 1 each row is one
        unsampled record, so every byte shows up in exactly one record
        and small scenario runs do not suffer sampling noise.  At 1-in-N
        a row of B bytes is ``max(1, round(B / flow_bytes))`` flows of
        ``flow_bytes``, and flow ``i`` is exported when
        ``stable_fraction(link_id, timestamp, src, i) < 1 / N``.  All or
        nothing, like :meth:`FlowLog.append_block`; returns the number of
        records exported.
        """
        _check_lengths(srcs, dsts, sizes, link_ids)
        if not srcs:
            return 0
        offered = sum(sizes)
        exported = (srcs, dsts, sizes, link_ids)
        if self.sampling_rate > 1:
            if min(sizes) <= 0:
                raise ValueError("flow bytes must be positive")
            keep, size = 1.0 / self.sampling_rate, self.flow_bytes
            exported = ([], [], [], [])
            kept_srcs, kept_dsts, kept_sizes, kept_links = exported
            for src, dst, total, link_id in zip(srcs, dsts, sizes, link_ids):
                dotted = str(IPv4Address(src))
                for index in range(max(1, round(total / size))):
                    if stable_fraction(link_id, timestamp, dotted, index) < keep:
                        kept_srcs.append(src)
                        kept_dsts.append(dst)
                        kept_sizes.append(size)
                        kept_links.append(link_id)
        count = len(exported[0])
        if count and timestamp < self._drained_until:
            raise ValueError("flows must be appended in time order")
        self._log.append_block(timestamp, *exported)
        self.total_offered_bytes += offered
        self._m_offered.inc(offered)
        if count:
            self._m_records.inc(count)
        return count

    def drain(self) -> FlowLog:
        """Hand over the records exported since the last drain, and forget them.

        What a shard worker ships home after each chunk: the returned
        block was the collector's only copy, so the records live in the
        coordinator's log and nowhere else.  The next block keeps this
        one's link numbering (the coordinator's absorb then copies link
        ids as they are), and a flow older than the last one handed over
        is still refused.  The offered-bytes tally is not drained.
        """
        block = self._log
        if block:
            self._drained_until = block.block_times[-1]
        self._log = block._like()
        return block

    def absorb(
        self, records: Union[FlowLog, Iterable[FlowRecord]], offered_bytes: int
    ) -> None:
        """Append records exported by another collector replica.

        The sharded engine generates flows in a worker process and
        merges them here; the exporting collector already counted the
        export metrics, so this only extends the log and the
        offered-bytes tally (no re-counting).  ``records`` is a :meth:`drain` block,
        a :class:`FlowLog` slice or any iterable of :class:`FlowRecord`.
        """
        if offered_bytes < 0:
            raise ValueError("bytes cannot be negative")
        self._log.extend(records)
        self.total_offered_bytes += offered_bytes

    @property
    def records(self) -> FlowLog:
        """Every exported record so far: the live log, not a copy."""
        return self._log

    def bytes_between(self, link_id: str, start: float, end: float) -> int:
        """Bytes exported on ``link_id`` with ``start <= timestamp < end``."""
        return self._log.bytes_between(link_id, start, end)

    def sampled_bytes(self) -> int:
        """Total bytes across exported records (before SNMP scaling)."""
        return sum(self._log.sizes)

    def __len__(self) -> int:
        return len(self._log)
