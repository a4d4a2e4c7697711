"""Netflow collection with packet sampling.

The ISP collected ~300 billion Netflow records over the measurement
week.  Netflow is *sampled* (typically 1 in N packets), so absolute
volumes from flow records alone are biased; the paper corrects this by
scaling flow volumes with the SNMP byte counters per link
(Section 5.3).  The reproduction implements both halves: a sampling
collector here, the SNMP-scaled estimator in
:mod:`repro.isp.snmp` / :mod:`repro.analysis.offload`.

The collector's log is a :class:`FlowLog`: typed columns, one row per
exported flow, no Python object per row.  A replay exports hundreds of
thousands of flows and keeps them to the end, and a heap of that many
live dataclasses costs more in cyclic-collector passes than the flows
cost to generate — so a :class:`FlowRecord` exists only while a reader
holds one, and the Figure 7/8 analyses read an exact hourly
:meth:`FlowLog.rollup` instead of every flow.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

from ..dns.policies import stable_fraction
from ..net.ipv4 import IPv4Address
from ..obs import get_registry

__all__ = ["FlowRecord", "FlowLog", "NetflowCollector"]

# Addresses are stored as ``array('I')`` values: that must be 32 bits.
if array("I").itemsize != 4:  # pragma: no cover - no such platform in CI
    raise ImportError("repro.isp.netflow needs a 4-byte array('I')")

#: Link ids are ``array('H')`` indexes into the log's interned link table.
MAX_LINKS = 1 << 16

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


class FlowLog:
    """An append-only, time-ordered columnar block of flow records.

    Reads like the list of records it replaces — ``len``, truth,
    iteration, indexing, slicing, ``==`` against another log or a
    tuple/list of records — but holds five typed arrays and an interned
    link table, and builds a :class:`FlowRecord` only for the reader
    that asks for one.  Self-contained: a block pickles as its arrays
    plus the link names, so a slice can cross a process boundary or sit
    in a checkpoint and be absorbed column-to-column by :meth:`extend`.

    Rows are in non-decreasing timestamp order — :meth:`span` bisects
    and :meth:`rollup` detects bin runs on that — and an append that
    goes back in time is refused with ``ValueError``.
    """

    __slots__ = ("times", "srcs", "dsts", "sizes", "link_ids", "links", "_link_index")

    def __init__(self, records: Iterable[FlowRecord] = ()) -> None:
        self.times = array("d")
        self.srcs = array("I")
        self.dsts = array("I")
        self.sizes = array("q")
        self.link_ids = array("H")
        self.links: list[str] = []
        self._link_index: dict[str, int] = {}
        for record in records:
            self.append(record)

    # ----- writing ------------------------------------------------------

    def _intern(self, link_id: str) -> int:
        index = self._link_index.get(link_id)
        if index is None:
            index = len(self.links)
            if index >= MAX_LINKS:
                raise ValueError(f"a flow log holds at most {MAX_LINKS} distinct links")
            self.links.append(link_id)
            self._link_index[link_id] = index
        return index

    def append_block(
        self, timestamp: float, rows: Sequence[tuple[int, int, int, str]]
    ) -> None:
        """Append the flows of one timestamp, ``(src, dst, bytes, link_id)`` each.

        All or nothing: the columns are built before the log is touched,
        so a block that goes back in time, a size that is not positive
        or a value its column cannot hold (``TypeError`` /
        ``OverflowError``) raises with every row of the log as it was.
        """
        if not rows:
            return
        times = self.times
        if times and timestamp < times[-1]:
            raise ValueError("flows must be appended in time order")
        srcs, dsts, sizes, link_names = zip(*rows)
        if min(sizes) <= 0:
            raise ValueError("flow bytes must be positive")
        new_times = array("d", (timestamp,)) * len(rows)
        new_srcs, new_dsts = array("I", srcs), array("I", dsts)
        new_sizes = array("q", sizes)
        for link_id in dict.fromkeys(link_names):  # first-appearance order
            self._intern(link_id)
        new_links = array("H", map(self._link_index.__getitem__, link_names))
        times.extend(new_times)
        self.srcs.extend(new_srcs)
        self.dsts.extend(new_dsts)
        self.sizes.extend(new_sizes)
        self.link_ids.extend(new_links)

    def append_values(
        self, timestamp: float, src: int, dst: int, size: int, link_id: str
    ) -> None:
        """Append one flow from its field values (addresses as ints)."""
        self.append_block(timestamp, ((src, dst, size, link_id),))

    def append(self, record: FlowRecord) -> None:
        """Append one record."""
        self.append_values(
            record.timestamp, record.src.value, record.dst.value,
            record.bytes, record.link_id,
        )

    def extend(self, records: Union["FlowLog", Iterable[FlowRecord]]) -> None:
        """Append a block column-to-column, or any iterable of records.

        All or nothing: a block (or a record somewhere in the iterable)
        that goes back in time raises before this log changes.  Link
        ids are remapped when the two link tables differ.
        """
        block = records if isinstance(records, FlowLog) else FlowLog(records)
        if not block:
            return
        if self.times and block.times[0] < self.times[-1]:
            raise ValueError("flows must be appended in time order")
        remap = [self._intern(link_id) for link_id in block.links]
        if remap == list(range(len(remap))):
            self.link_ids.extend(block.link_ids)
        else:
            self.link_ids.extend(array("H", map(remap.__getitem__, block.link_ids)))
        self.times.extend(block.times)
        self.srcs.extend(block.srcs)
        self.dsts.extend(block.dsts)
        self.sizes.extend(block.sizes)

    # ----- reading as a sequence ----------------------------------------

    def __len__(self) -> int:
        return len(self.times)

    def rows(self, lo: int, hi: int) -> Iterator[FlowRecord]:
        """The records of rows ``lo <= row < hi``, built one at a time."""
        links = self.links
        addresses: dict[int, IPv4Address] = {}  # one object per distinct value

        def address(value: int) -> IPv4Address:
            found = addresses.get(value)
            if found is None:
                found = addresses[value] = IPv4Address(value)
            return found

        for timestamp, src, dst, size, link in zip(
            self.times[lo:hi], self.srcs[lo:hi], self.dsts[lo:hi],
            self.sizes[lo:hi], self.link_ids[lo:hi],
        ):
            yield FlowRecord(timestamp, address(src), address(dst), size, links[link])

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
            block = self._like()
            block.times = self.times[key]
            block.srcs = self.srcs[key]
            block.dsts = self.dsts[key]
            block.sizes = self.sizes[key]
            block.link_ids = self.link_ids[key]
            return block
        return FlowRecord(
            self.times[key],
            IPv4Address(self.srcs[key]),
            IPv4Address(self.dsts[key]),
            self.sizes[key],
            self.links[self.link_ids[key]],
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, FlowLog):
            if not (
                self.times == other.times and self.srcs == other.srcs
                and self.dsts == other.dsts and self.sizes == other.sizes
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
            self.times, self.srcs, self.dsts, self.sizes, self.link_ids, self.links
        )

    def __setstate__(self, state: tuple) -> None:
        if len({len(column) for column in state[:5]}) != 1:
            raise ValueError("flow log columns differ in length")
        self.times, self.srcs, self.dsts, self.sizes, self.link_ids, self.links = state
        self._link_index = {link_id: i for i, link_id in enumerate(self.links)}

    # ----- reading the columns ------------------------------------------

    def span(self, start: float, end: float) -> tuple[int, int]:
        """The row range ``[lo, hi)`` with ``start <= timestamp < end``."""
        return bisect_left(self.times, start), bisect_left(self.times, end)

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
        out_sizes = out.sizes
        dsts = self.dsts
        groups: dict[int, int] = {}  # (src, link) of the open bin -> out row
        last_time = bin_start = None
        for row, (timestamp, src, link, size) in enumerate(
            zip(self.times, self.srcs, self.link_ids, self.sizes)
        ):
            if timestamp != last_time:
                last_time = timestamp
                start = math.floor(timestamp / bin_seconds) * bin_seconds
                if start != bin_start:
                    bin_start = start
                    groups.clear()
            key = (src << 16) | link
            out_row = groups.get(key)
            if out_row is None:
                groups[key] = len(out_sizes)
                out.times.append(bin_start)
                out.srcs.append(src)
                out.dsts.append(dsts[row])
                out_sizes.append(size)
                out.link_ids.append(link)
            else:
                out_sizes[out_row] += size
        return out


class NetflowCollector:
    """Samples synthetic flows out of aggregate per-link traffic.

    ``sampling_rate`` is the classic 1-in-N: an aggregate of B bytes on
    a link decomposes into flows of ``flow_bytes`` each, of which a
    deterministic 1/N are exported.  Determinism (a stable hash over
    link, time and flow index) keeps runs reproducible while remaining
    statistically faithful: expected exported volume is B/N.

    Traffic is fed in time order; the log refuses (``ValueError``) a
    flow older than the last one it holds.
    """

    def __init__(self, sampling_rate: int = 1000, flow_bytes: int = 40 * 1024 * 1024):
        if sampling_rate < 1:
            raise ValueError("sampling_rate must be >= 1")
        if flow_bytes <= 0:
            raise ValueError("flow_bytes must be positive")
        self.sampling_rate = sampling_rate
        self.flow_bytes = flow_bytes
        self._log = FlowLog()
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
        self, timestamp: float, rows: Sequence[tuple[int, int, int, str]]
    ) -> int:
        """Export the flows of one tick's ``(src, dst, bytes, link_id)`` rows.

        What the simulation engine hands over at the end of a tick;
        addresses are their integer values.  At rate 1 each row is one
        unsampled record, so every byte shows up in exactly one record
        and small scenario runs do not suffer sampling noise.  At 1-in-N
        a row of B bytes is ``max(1, round(B / flow_bytes))`` flows of
        ``flow_bytes``, and flow ``i`` is exported when
        ``stable_fraction(link_id, timestamp, src, i) < 1 / N``.  All or
        nothing, like :meth:`FlowLog.append_block`; returns the number of
        records exported.
        """
        if not rows:
            return 0
        offered = sum(row[2] for row in rows)
        exported = rows
        if self.sampling_rate > 1:
            if min(row[2] for row in rows) <= 0:
                raise ValueError("flow bytes must be positive")
            keep, size = 1.0 / self.sampling_rate, self.flow_bytes
            exported = []
            for src, dst, total, link_id in rows:
                dotted = str(IPv4Address(src))
                exported.extend(
                    (src, dst, size, link_id)
                    for index in range(max(1, round(total / size)))
                    if stable_fraction(link_id, timestamp, dotted, index) < keep
                )
        self._log.append_block(timestamp, exported)
        self.total_offered_bytes += offered
        self._m_offered.inc(offered)
        if exported:
            self._m_records.inc(len(exported))
        return len(exported)

    def mark(self) -> int:
        """A cursor over the record log (for :meth:`records_since`)."""
        return len(self._log)

    def records_since(self, cursor: int) -> FlowLog:
        """The block of records appended after a :meth:`mark` cursor."""
        return self._log[cursor:]

    def absorb(
        self, records: Union[FlowLog, Iterable[FlowRecord]], offered_bytes: int
    ) -> None:
        """Append records exported by another collector replica.

        The sharded engine generates flows in a worker process and
        merges them here, and a resumed run splices a checkpoint's log
        back in; the exporting collector already counted the export
        metrics, so this only extends the log and the offered-bytes
        tally (no re-counting).  ``records`` is a :meth:`records_since`
        block or any iterable of :class:`FlowRecord`.
        """
        if offered_bytes < 0:
            raise ValueError("bytes cannot be negative")
        self._log.extend(records)
        self.total_offered_bytes += offered_bytes

    @property
    def records(self) -> FlowLog:
        """Every exported record so far: the live log, not a copy."""
        return self._log

    def records_between(self, start: float, end: float) -> Iterator[FlowRecord]:
        """Records with ``start <= timestamp < end``."""
        return self._log.rows(*self._log.span(start, end))

    def bytes_between(self, link_id: str, start: float, end: float) -> int:
        """Bytes exported on ``link_id`` with ``start <= timestamp < end``."""
        return self._log.bytes_between(link_id, start, end)

    def sampled_bytes(self) -> int:
        """Total bytes across exported records (before SNMP scaling)."""
        return sum(self._log.sizes)

    def __len__(self) -> int:
        return len(self._log)
