"""RIPE-Atlas-style measurement result records and their store.

The public dataset behind the paper (RIPE Atlas measurement #9299652)
delivers, per probe and tick, the DNS answer seen by the probe's local
resolver.  The reproduction's records carry the same analytical payload:
who measured (probe, AS, continent), when, what the CNAME chain was and
which addresses came back.

:class:`MeasurementStore` keeps DNS history in columnar segments (see
:mod:`repro.atlas.columnar`): appends go into an open typed-column
block that is sealed into an immutable :class:`~repro.atlas.columnar.
DnsSegment` every ``segment_rows`` rows, and sealed segments spill to a
compact binary file under a run directory once the in-memory budget is
exceeded.  Per-segment min/max-time summaries let windowed queries
prune whole segments; ``store.dns`` stays available as a zero-copy
sequence view that reconstructs records on demand.  Traceroutes are
one :class:`~repro.atlas.columnar.TracerouteColumns` block, read the
same way through ``store.traceroutes``.
"""

from __future__ import annotations

import bisect
import operator
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Sequence, Tuple, Union

from ..net.asys import ASN
from ..net.geo import Continent
from ..net.ipv4 import IPv4Address
from ..obs import get_registry
from .columnar import DnsColumns, DnsSegment, TracerouteColumns

__all__ = [
    "DnsMeasurement",
    "TracerouteHop",
    "TracerouteMeasurement",
    "MeasurementStore",
    "DnsSequenceView",
    "TracerouteSequenceView",
]


@dataclass(frozen=True)
class DnsMeasurement:
    """One DNS measurement: a probe's resolution at one tick."""

    probe_id: int
    timestamp: float
    target: str
    probe_asn: ASN
    continent: Continent
    country: str
    rcode: str
    chain: tuple[str, ...]  # names visited, query name first
    addresses: tuple[IPv4Address, ...]

    @property
    def final_name(self) -> str:
        """The terminal name of the CNAME chain."""
        return self.chain[-1] if self.chain else self.target

    @property
    def succeeded(self) -> bool:
        """Whether addresses were obtained."""
        return self.rcode == "NOERROR" and bool(self.addresses)


@dataclass(frozen=True)
class TracerouteHop:
    """One traceroute hop."""

    ttl: int
    address: IPv4Address
    asn: Optional[ASN]
    rtt_ms: float


@dataclass(frozen=True)
class TracerouteMeasurement:
    """One traceroute from a probe to a cache address."""

    probe_id: int
    timestamp: float
    destination: IPv4Address
    hops: tuple[TracerouteHop, ...]

    @property
    def reached(self) -> bool:
        """Whether the destination answered."""
        return bool(self.hops) and self.hops[-1].address == self.destination

    @property
    def as_path(self) -> tuple[ASN, ...]:
        """The AS-level path (consecutive duplicates collapsed)."""
        path: list[ASN] = []
        for hop in self.hops:
            if hop.asn is not None and (not path or path[-1] != hop.asn):
                path.append(hop.asn)
        return tuple(path)


def _check_time_order(times, last: Optional[float], what: str) -> None:
    """Raise unless ``times`` never decrease and start at or after ``last``."""
    if (last is not None and times[0] < last) or not all(
        map(operator.le, times, times[1:])
    ):
        raise ValueError(f"{what} must be appended in time order")


class _SequenceViewMixin:
    """What the store's read-only views share: random access through the
    view's ``_row(index)``, element-wise equality and representation."""

    __slots__ = ()

    def __init__(self, store: "MeasurementStore") -> None:
        self._store = store

    def __getitem__(self, index: Union[int, slice]):
        count = len(self)  # type: ignore[arg-type]
        if isinstance(index, slice):
            return [self._row(i) for i in range(*index.indices(count))]  # type: ignore[attr-defined]
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError(f"{type(self).__name__} index out of range")
        return self._row(index)  # type: ignore[attr-defined]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Sequence, _SequenceViewMixin)):
            return NotImplemented
        if len(self) != len(other):  # type: ignore[arg-type]
            return False
        return all(a == b for a, b in zip(iter(self), iter(other)))  # type: ignore[call-overload]

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    __hash__ = None  # views are mutable windows onto a growing store

    def __repr__(self) -> str:
        return f"<{type(self).__name__} of {len(self)} records>"  # type: ignore[arg-type]


class DnsSequenceView(_SequenceViewMixin, Sequence):
    """A zero-copy, read-only sequence view over a store's DNS history.

    Unlike the old ``tuple(self._dns)`` property this never copies the
    history; records are reconstructed from the columnar segments on
    demand.  Iteration decodes segment by segment (one disk read per
    spilled segment), so full scans stay O(n) even when most of the
    history lives on disk.
    """

    __slots__ = ("_store",)

    def __len__(self) -> int:
        return self._store.dns_count

    def __iter__(self) -> Iterator[DnsMeasurement]:
        return self._store.iter_dns()

    def _row(self, index: int) -> DnsMeasurement:
        return self._store._dns_at(index)


class TracerouteSequenceView(_SequenceViewMixin, Sequence):
    """A read-only sequence view over a store's traceroute columns.

    Each access builds the :class:`TracerouteMeasurement` (and its hops)
    from the columns, so the records live only as long as the caller
    holds them.
    """

    __slots__ = ("_store",)

    def __len__(self) -> int:
        return len(self._store.traceroute_columns)

    def __iter__(self) -> Iterator[TracerouteMeasurement]:
        columns = self._store.traceroute_columns
        return map(columns.measurement, range(len(columns)))

    def _row(self, index: int) -> TracerouteMeasurement:
        return self._store.traceroute_columns.measurement(index)


class MeasurementStore:
    """An append-only, time-ordered store of measurement records.

    DNS history is columnar and segmented: ``segment_rows`` rows per
    sealed segment, with sealed segments spilling to ``spill_dir`` (a
    temporary run directory if none is given) once their resident bytes
    exceed ``memory_budget_bytes``.  ``name`` labels the store's
    telemetry series and spill files.
    """

    #: How many spilled segments' columns are kept decoded at once.
    LOAD_CACHE_SEGMENTS = 2

    def __init__(
        self,
        segment_rows: int = 8192,
        memory_budget_bytes: Optional[int] = None,
        spill_dir: Optional[Union[str, Path]] = None,
        name: str = "store",
    ) -> None:
        if segment_rows < 1:
            raise ValueError("segment_rows must be >= 1")
        if memory_budget_bytes is not None and memory_budget_bytes < 0:
            raise ValueError("memory_budget_bytes must be >= 0")
        self.name = name
        self._segment_rows = segment_rows
        self._memory_budget_bytes = memory_budget_bytes
        self._spill_dir = Path(spill_dir) if spill_dir is not None else None
        self._tmpdir: Optional[tempfile.TemporaryDirectory] = None
        self._segments: list[DnsSegment] = []
        self._segment_starts: list[int] = []
        self._open = DnsColumns()
        self._dns_count = 0
        self._last_time: Optional[float] = None
        self._sealed_resident_bytes = 0
        self._spill_cursor = 0
        self._load_cache: dict[int, DnsColumns] = {}
        self._traces = TracerouteColumns()
        self._unique_values: set[int] = set()
        self._unique_frozen: Optional[frozenset] = None
        self._dns_view = DnsSequenceView(self)
        self._traceroute_view = TracerouteSequenceView(self)
        registry = get_registry()
        labels = (self.name,)
        self._m_sealed = registry.counter(
            "store_segments_sealed_total",
            "Columnar segments sealed, by store",
            ("store",),
        ).labels(*labels)
        self._m_spilled = registry.counter(
            "store_segments_spilled_total",
            "Sealed segments spilled to disk, by store",
            ("store",),
        ).labels(*labels)
        self._m_spilled_bytes = registry.counter(
            "store_spilled_bytes_total",
            "Column bytes written to spill files, by store",
            ("store",),
        ).labels(*labels)
        self._m_reloads = registry.counter(
            "store_segment_reloads_total",
            "Spilled segments decoded back from disk, by store",
            ("store",),
        ).labels(*labels)
        self._m_resident = registry.gauge(
            "store_resident_bytes",
            "Resident column bytes (sealed + open), by store",
            ("store",),
        ).labels(*labels)

    # ----- append paths -------------------------------------------------

    def add_dns(self, measurement: DnsMeasurement) -> None:
        """Record a DNS measurement (must be appended in time order)."""
        self.add_dns_block(DnsColumns.from_measurements((measurement,)))

    def add_dns_block(self, block: DnsColumns) -> None:
        """Record a block of DNS measurements: the one append path.

        A campaign tick lands here as one block (serial or gathered
        from shard workers) and :meth:`add_dns` wraps a single row.
        All or nothing: a block that is unordered inside itself or
        starts before the last recorded measurement raises before the
        store changes.  The block is split where the open block reaches
        ``segment_rows``, so segments seal at the same rows — with the
        same bytes — as appending row by row would.
        """
        rows = len(block)
        if not rows:
            return
        times = block.times
        _check_time_order(times, self._last_time, "measurements")
        lo = 0
        while lo < rows:
            hi = min(rows, lo + self._segment_rows - len(self._open))
            self._open.extend(block, lo, hi)
            self._dns_count += hi - lo
            if len(self._open) >= self._segment_rows:
                self._seal_open()
            lo = hi
        self._last_time = times[-1]
        unique = self._unique_values
        before = len(unique)
        unique.update(block.addr_values)
        if len(unique) != before:
            self._unique_frozen = None

    def add_traceroute(self, measurement: TracerouteMeasurement) -> None:
        """Record a traceroute measurement (must be appended in time order)."""
        self.add_traceroute_block(TracerouteColumns.from_measurements((measurement,)))

    def add_traceroute_block(self, block: TracerouteColumns) -> None:
        """Record a block of traceroutes: the one traceroute append path.

        A sweep lands here as one block and :meth:`add_traceroute` wraps
        a single trace.  The same monotonicity rule as
        :meth:`add_dns_block` (equal timestamps are fine — a sweep fires
        many traceroutes at one tick), all or nothing, so windowed
        traceroute queries can rely on time order.
        """
        if not len(block):
            return
        traces = self._traces
        _check_time_order(
            block.times, traces.times[-1] if len(traces) else None, "traceroutes"
        )
        traces.extend(block)

    # ----- segment management -------------------------------------------

    def _seal_open(self) -> None:
        segment = DnsSegment(
            self._open,
            segment_id=len(self._segments),
            start_row=self._dns_count - len(self._open),
        )
        self._segments.append(segment)
        self._segment_starts.append(segment.start_row)
        self._open = DnsColumns()
        self._sealed_resident_bytes += segment.nbytes
        self._m_sealed.inc()
        self._enforce_budget()
        self._m_resident.set(self.resident_bytes)

    def _enforce_budget(self) -> None:
        if self._memory_budget_bytes is None:
            return
        while (
            self._sealed_resident_bytes > self._memory_budget_bytes
            and self._spill_cursor < len(self._segments)
        ):
            segment = self._segments[self._spill_cursor]
            self._spill_cursor += 1
            if not segment.resident:
                continue
            freed = segment.spill(self._segment_path(segment))
            self._sealed_resident_bytes -= freed
            self._m_spilled.inc()
            self._m_spilled_bytes.inc(freed)

    def _segment_path(self, segment: DnsSegment) -> Path:
        if self._spill_dir is None:
            if self._tmpdir is None:
                self._tmpdir = tempfile.TemporaryDirectory(
                    prefix=f"repro-store-{self.name}-"
                )
            self._spill_dir = Path(self._tmpdir.name)
        self._spill_dir.mkdir(parents=True, exist_ok=True)
        return self._spill_dir / f"{self.name}-{segment.segment_id:06d}.seg"

    def _columns_of(self, segment: DnsSegment) -> DnsColumns:
        if segment.resident:
            return segment.load()
        cached = self._load_cache.get(segment.segment_id)
        if cached is not None:
            return cached
        columns = segment.load()
        self._m_reloads.inc()
        self._load_cache[segment.segment_id] = columns
        while len(self._load_cache) > self.LOAD_CACHE_SEGMENTS:
            self._load_cache.pop(next(iter(self._load_cache)))
        return columns

    def dns_segments(
        self, start: Optional[float] = None, end: Optional[float] = None
    ) -> Iterator[Tuple[DnsColumns, int, int]]:
        """Stream ``(columns, lo, hi)`` scan ranges for a time window.

        Segments wholly outside ``start <= t < end`` are pruned via
        their resident summaries without touching their columns (or the
        disk, for spilled segments); boundary segments are narrowed by
        bisection on the timestamp column.  This is the primitive the
        windowed analysis aggregations stream over.
        """
        blocks: list = list(self._segments)
        if len(self._open):
            blocks.append(None)  # sentinel for the open block
        for block in blocks:
            if block is None:
                columns = self._open
                min_time, max_time = columns.times[0], columns.times[-1]
            else:
                if not block.rows:
                    continue
                min_time, max_time = block.min_time, block.max_time
                columns = None
            if start is not None and max_time < start:
                continue
            if end is not None and min_time >= end:
                break  # segments are time-ordered: nothing later matches
            if columns is None:
                columns = self._columns_of(block)
            rows = len(columns)
            lo = 0
            if start is not None and min_time < start:
                lo = bisect.bisect_left(columns.times, start)
            hi = rows
            if end is not None and max_time >= end:
                hi = bisect.bisect_left(columns.times, end)
            if lo < hi:
                yield columns, lo, hi

    def iter_dns(self) -> Iterator[DnsMeasurement]:
        """All DNS measurements, oldest first, decoded segment-wise."""
        return self.dns_between(None, None)

    def _dns_at(self, index: int) -> DnsMeasurement:
        """Random access for the sequence view (index already validated)."""
        open_start = self._dns_count - len(self._open)
        if index >= open_start:
            return self._open.measurement(index - open_start)
        position = bisect.bisect_right(self._segment_starts, index) - 1
        segment = self._segments[position]
        return self._columns_of(segment).measurement(index - segment.start_row)

    # ----- read API -----------------------------------------------------

    @property
    def dns(self) -> DnsSequenceView:
        """All DNS measurements, oldest first (zero-copy view)."""
        return self._dns_view

    @property
    def traceroutes(self) -> TracerouteSequenceView:
        """All traceroute measurements, oldest first (zero-copy view)."""
        return self._traceroute_view

    @property
    def traceroute_columns(self) -> TracerouteColumns:
        """The traceroute log itself, as columns (read it, never write it)."""
        return self._traces

    @property
    def dns_count(self) -> int:
        """Number of DNS measurements recorded."""
        return self._dns_count

    @property
    def traceroute_count(self) -> int:
        """Number of traceroute measurements recorded."""
        return len(self._traces)

    @property
    def segment_count(self) -> int:
        """Sealed segments so far (excluding the open block)."""
        return len(self._segments)

    @property
    def spilled_segment_count(self) -> int:
        """Sealed segments currently spilled to disk."""
        return sum(1 for segment in self._segments if not segment.resident)

    @property
    def resident_bytes(self) -> int:
        """Resident column bytes: sealed-resident plus the open block.

        The transient decode cache (at most ``LOAD_CACHE_SEGMENTS``
        segments during queries over spilled history) is extra.
        """
        return self._sealed_resident_bytes + self._open.nbytes

    @property
    def spill_dir(self) -> Optional[Path]:
        """Where spilled segments live (``None`` until the first spill
        when no directory was configured)."""
        return self._spill_dir

    def dns_between(
        self, start: Optional[float], end: Optional[float]
    ) -> Iterator[DnsMeasurement]:
        """DNS measurements with ``start <= timestamp < end`` (``None``
        leaves that side open)."""
        for columns, lo, hi in self.dns_segments(start, end):
            for measurement in columns.iter_measurements(lo, hi):
                yield measurement

    def unique_addresses(self) -> frozenset:
        """Every cache address observed across all DNS measurements.

        Maintained incrementally on the append paths — the traceroute
        campaign asks for this every sweep, and rescanning the full DNS
        history each hour dominated large-run profiles.  Returns an
        immutable (frozen) view, cached until a new address appears, so
        callers can neither mutate store state nor pay a copy.
        """
        if self._unique_frozen is None:
            self._unique_frozen = frozenset(
                IPv4Address(value) for value in self._unique_values
            )
        return self._unique_frozen

    def unique_address_values(self) -> list[int]:
        """:meth:`unique_addresses` as address values, ascending (a new
        list per call), with no address object built."""
        return sorted(self._unique_values)

    # ----- checkpoint capture --------------------------------------------

    def dump_state(self) -> dict:
        """A picklable snapshot of the full store contents.

        Sealed segments travel as their binary ``RSEG`` payloads
        (spilled segments are read back from disk verbatim), the open
        block as one more payload, the traceroute columns as arrays,
        plus the counters and the unique-IP set: what a checkpoint
        carries of a store (the perf ledger's capture → save → load
        round trip), and what tests compare two stores' contents by.
        """
        segments = []
        for segment in self._segments:
            if segment.resident:
                payload = segment.load().to_bytes()
            else:
                payload = segment.path.read_bytes()
            segments.append(
                {
                    "segment_id": segment.segment_id,
                    "start_row": segment.start_row,
                    "payload": payload,
                }
            )
        return {
            "name": self.name,
            "dns_count": self._dns_count,
            "last_time": self._last_time,
            "segments": segments,
            "open": self._open.to_bytes(),
            "traceroutes": self._traces.state(),
            "unique_values": sorted(self._unique_values),
        }

    def segment_summaries(self) -> list[dict]:
        """Resident per-segment summaries (the tests compare layouts with it)."""
        return [
            {
                "segment_id": segment.segment_id,
                "start_row": segment.start_row,
                "rows": segment.rows,
                "min_time": segment.min_time,
                "max_time": segment.max_time,
                "nbytes": segment.nbytes,
            }
            for segment in self._segments
        ]

    def __len__(self) -> int:
        return self._dns_count + len(self._traces)
