"""Columnar (struct-of-arrays) storage for measurement records.

:class:`~repro.atlas.results.MeasurementStore` used to keep every
:class:`~repro.atlas.results.DnsMeasurement` as a Python object in a
list, which made analysis cost and memory grow with run length: the
paper's §4/§5 aggregations only need a handful of fields per record,
yet every scan paid full dataclass attribute access and every
``store.dns`` access copied the whole history.  This module provides
the columnar core behind the store:

* :class:`DnsColumns` — an append-only block of typed columns
  (timestamps as ``array('d')``, packed IPv4 ints in a CSR layout,
  interned target/country/rcode/CNAME-chain tables), self-contained
  and losslessly convertible back to :class:`DnsMeasurement` rows;
* :class:`DnsSegment` — a sealed, immutable block plus the summary
  (min/max time, unique address ints, byte size) that lets
  time-window queries prune whole segments, and a compact binary
  on-disk form so sealed segments can spill out of RAM;
* :class:`ProbeColumns` — the columns a probe slice repeats every
  tick, built once so a campaign tick (:meth:`DnsColumns.tick`) writes
  only what each resolution produced;
* :class:`TracerouteColumns` — the traceroute log: per trace probe id,
  time and destination, per hop TTL, address, ASN and RTT, so a run's
  traceroutes are a handful of buffers rather than one tracked object
  per trace and per hop.

A campaign tick is one block end to end: a shard worker ships its
slice as one, the sharded coordinator interleaves the slices with one
:meth:`DnsColumns.gather`, and the store appends a block with one
:meth:`DnsColumns.extend` per segment it reaches.

Everything round-trips exactly: a reconstructed row compares equal to
the measurement that was appended, which is what keeps golden-run
summaries byte-identical across the columnar swap.  :meth:`DnsColumns.extend`
re-interns in first-appearance row order, so what a store holds —
tables and bytes — equals appending the same rows one by one.
"""

from __future__ import annotations

import operator
import sys
from array import array
from itertools import accumulate, chain
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence

from ..container import Container
from ..net.asys import ASN
from ..net.geo import Continent
from ..net.ipv4 import IPv4Address

__all__ = [
    "CONTINENTS",
    "CONTINENT_INDEX",
    "DnsColumns",
    "DnsSegment",
    "ProbeColumns",
    "SegmentFormatError",
    "TracerouteColumns",
]

# Continent <-> column index mapping (enum definition order is stable).
CONTINENTS: tuple = tuple(Continent)
CONTINENT_INDEX: dict = {continent: index for index, continent in enumerate(CONTINENTS)}

# (attribute, array typecode) in serialization order.
_ARRAY_FIELDS = (
    ("times", "d"),
    ("probe_ids", "q"),
    ("asns", "I"),
    ("continents", "B"),
    ("target_ids", "H"),
    ("country_ids", "H"),
    ("rcode_ids", "B"),
    ("chain_ids", "I"),
    ("addr_offsets", "Q"),
    ("addr_values", "I"),
)

# The columns with one entry per row (the address offsets have one
# more, the address values one per address).
_ROW_FIELDS = tuple(
    name for name, _ in _ARRAY_FIELDS if name not in ("addr_offsets", "addr_values")
)
# The columns carried as-is, row for row, and the (id column, table,
# index) triples whose ids point into a per-block table.
_PLAIN_FIELDS = ("times", "probe_ids", "asns", "continents")
_INTERNED_FIELDS = (
    ("target_ids", "targets", "_target_index"),
    ("country_ids", "countries", "_country_index"),
    ("rcode_ids", "rcodes", "_rcode_index"),
    ("chain_ids", "chains", "_chain_index"),
)

_RESULTS = None


def _results():
    """:mod:`repro.atlas.results`, the record classes' module (imported
    on first use: it imports this one)."""
    global _RESULTS
    if _RESULTS is None:
        from . import results

        _RESULTS = results
    return _RESULTS


class SegmentFormatError(ValueError):
    """Raised for a malformed, unreadable or unwritable segment payload."""


_CONTAINER = Container(b"RSEG2\n", 2, SegmentFormatError, "segment")


class ProbeColumns(NamedTuple):
    """The columns of a probe slice that every tick repeats.

    Probe id, AS number, continent and country are properties of the
    probe and the target is the campaign's, so a campaign builds these
    once per probe slice (:meth:`of`) and :meth:`DnsColumns.tick`
    copies them into each tick's block.
    """

    target: str
    probe_ids: array
    asns: array
    continents: array
    country_ids: array
    countries: list

    @classmethod
    def of(cls, target: str, probes: Sequence) -> "ProbeColumns":
        """The fixed columns of ``probes`` (anything with the
        :class:`~repro.atlas.probe.AtlasProbe` identity attributes), in
        order; countries are interned in first-appearance order."""
        countries: dict = {}
        return cls(
            target,
            array("q", [probe.probe_id for probe in probes]),
            array("I", [probe.asn.number for probe in probes]),
            array("B", [CONTINENT_INDEX[probe.continent] for probe in probes]),
            array(
                "H",
                [countries.setdefault(probe.country, len(countries)) for probe in probes],
            ),
            list(countries),
        )


_VALUE = attrgetter("value")


def _positions(table: list) -> dict:
    """Each value of ``table`` -> its index (the values are distinct)."""
    return {value: index for index, value in enumerate(table)}


def _reinterned(ids: array, source: list, index: dict, table: list) -> array:
    """``ids`` (pointing into ``source``) as ids into ``table``.

    Each ``source`` value is looked up once.  Values new to ``table``
    are interned in first-appearance order of ``ids`` — the order
    appending the rows one by one would intern them — which is the one
    pass over the rows that only a new value costs.  The column is
    rewritten by one C-level map, or returned as is when no id moves.
    """
    remap = [index.get(value) for value in source]
    if None in remap:
        for source_id in dict.fromkeys(ids):
            if remap[source_id] is None:
                remap[source_id] = DnsColumns._intern(index, table, source[source_id])
    if remap == list(range(len(remap))):
        return ids
    return array(ids.typecode, map(remap.__getitem__, ids))


class DnsColumns:
    """An append-only columnar block of DNS measurements.

    Self-contained: the interned string/chain tables travel with the
    block, so a block can be pickled to another process or written to
    disk and read back without any external state.
    """

    __slots__ = (
        "times",
        "probe_ids",
        "asns",
        "continents",
        "target_ids",
        "country_ids",
        "rcode_ids",
        "chain_ids",
        "addr_offsets",
        "addr_values",
        "targets",
        "countries",
        "rcodes",
        "chains",
        "_target_index",
        "_country_index",
        "_rcode_index",
        "_chain_index",
    )

    def __init__(self) -> None:
        for name, typecode in _ARRAY_FIELDS:
            setattr(self, name, array(typecode))
        self.addr_offsets.append(0)
        self.targets: List[str] = []
        self.countries: List[str] = []
        self.rcodes: List[str] = []
        self.chains: List[tuple] = []
        self._target_index: Optional[dict] = {}
        self._country_index: Optional[dict] = {}
        self._rcode_index: Optional[dict] = {}
        self._chain_index: Optional[dict] = {}

    # ----- interning ----------------------------------------------------

    def _drop_indexes(self) -> None:
        """Forget the intern indexes; :meth:`_ensure_indexes` rebuilds
        them if this block is ever appended to."""
        self._target_index = None
        self._country_index = None
        self._rcode_index = None
        self._chain_index = None

    def _ensure_indexes(self) -> None:
        """Rebuild the intern indexes (dropped on pickle/deserialize)."""
        if self._target_index is None:
            self._target_index = {value: i for i, value in enumerate(self.targets)}
            self._country_index = {value: i for i, value in enumerate(self.countries)}
            self._rcode_index = {value: i for i, value in enumerate(self.rcodes)}
            self._chain_index = {value: i for i, value in enumerate(self.chains)}

    @staticmethod
    def _intern(index: dict, table: list, value) -> int:
        interned = index.get(value)
        if interned is None:
            interned = len(table)
            index[value] = interned
            table.append(value)
        return interned

    # ----- append -------------------------------------------------------

    def append(self, measurement) -> None:
        """Append one :class:`DnsMeasurement` as a columnar row."""
        self._ensure_indexes()
        self.times.append(measurement.timestamp)
        self.probe_ids.append(measurement.probe_id)
        self.asns.append(measurement.probe_asn.number)
        self.continents.append(CONTINENT_INDEX[measurement.continent])
        self.target_ids.append(
            self._intern(self._target_index, self.targets, measurement.target)
        )
        self.country_ids.append(
            self._intern(self._country_index, self.countries, measurement.country)
        )
        self.rcode_ids.append(
            self._intern(self._rcode_index, self.rcodes, measurement.rcode)
        )
        self.chain_ids.append(
            self._intern(self._chain_index, self.chains, measurement.chain)
        )
        self.addr_values.extend([address.value for address in measurement.addresses])
        self.addr_offsets.append(len(self.addr_values))

    @classmethod
    def from_measurements(cls, measurements: Sequence) -> "DnsColumns":
        """Encode a measurement sequence as one columnar block."""
        columns = cls()
        for measurement in measurements:
            columns.append(measurement)
        return columns

    @classmethod
    def tick(
        cls, fixed: ProbeColumns, now: float, outcomes: Iterable[tuple]
    ) -> "DnsColumns":
        """One campaign tick over a probe slice, as a block.

        The fixed columns are copied from ``fixed`` (one array copy
        each) and every row is stamped ``now``; per probe only what its
        resolution produced is written — ``outcomes`` holds one
        ``(rcode, chain, addresses)`` per probe of ``fixed``, in order,
        addresses as :class:`IPv4Address`.  Equal, tables and bytes, to
        appending the same measurements one by one.
        """
        block = cls()
        count = len(fixed.probe_ids)
        block.times = array("d", [now]) * count
        block.probe_ids = fixed.probe_ids[:]
        block.asns = fixed.asns[:]
        block.continents = fixed.continents[:]
        block.target_ids = array("H", [0]) * count
        block.targets = [fixed.target] if count else []
        block.country_ids = fixed.country_ids[:]
        block.countries = list(fixed.countries)
        # Column by column, each a C-level pass: the tables in
        # first-appearance order, then every row's id into them.
        rcodes, chains, addresses = tuple(zip(*outcomes)) or ((), (), ())
        block.rcodes = list(dict.fromkeys(rcodes))
        block.chains = list(dict.fromkeys(chains))
        block.rcode_ids.extend(map(_positions(block.rcodes).__getitem__, rcodes))
        block.chain_ids.extend(map(_positions(block.chains).__getitem__, chains))
        block.addr_values.extend(map(_VALUE, chain.from_iterable(addresses)))
        block.addr_offsets.extend(accumulate(map(len, addresses)))
        block._drop_indexes()
        return block

    def extend(self, other: "DnsColumns", lo: int = 0, hi: Optional[int] = None) -> None:
        """Append rows ``lo..hi`` of ``other`` (all by default), column to column.

        Intern ids are remapped into this block's tables in
        first-appearance row order, so the result — tables and bytes —
        equals appending those rows one by one.  No ordering check: the
        store that owns this block makes it.
        """
        stop = len(other) if hi is None else hi
        if lo >= stop:
            return
        self._ensure_indexes()
        for name in _PLAIN_FIELDS:
            getattr(self, name).extend(getattr(other, name)[lo:stop])
        for ids, table, index in _INTERNED_FIELDS:
            getattr(self, ids).extend(
                _reinterned(
                    getattr(other, ids)[lo:stop],
                    getattr(other, table),
                    getattr(self, index),
                    getattr(self, table),
                )
            )
        first, last = other.addr_offsets[lo], other.addr_offsets[stop]
        shift = len(self.addr_values) - first
        self.addr_values.extend(other.addr_values[first:last])
        self.addr_offsets.extend(map(shift.__add__, other.addr_offsets[lo + 1 : stop + 1]))

    @classmethod
    def gather(cls, slices: Sequence["DnsColumns"], order: Sequence[int]) -> "DnsColumns":
        """Interleave ``slices`` into one block, a column at a time.

        ``order`` lists, for each row of the result, that row's position
        in the slices laid end to end: what the sharded coordinator
        builds from its workers' slices of a tick.  The rows equal
        appending them one by one in that order.  Each value is listed
        once in the tables, in the order the slices' tables list them
        rather than row order: the store's append (:meth:`extend`)
        re-interns in row order anyway.
        """
        # ``pick(column)`` is the column's items at ``order``, looked up
        # in C; itemgetter returns a bare item, not a tuple, for one index.
        if len(order) > 1:
            pick = itemgetter(*order)
        else:

            def pick(column):
                return [column[row] for row in order]

        block = cls()
        for name in _PLAIN_FIELDS:
            joined = array(getattr(block, name).typecode)
            for piece in slices:
                joined.extend(getattr(piece, name))
            setattr(block, name, array(joined.typecode, pick(joined)))
        for ids, table, index in _INTERNED_FIELDS:
            joined = array(getattr(block, ids).typecode)
            block_index, block_table = getattr(block, index), getattr(block, table)
            for piece in slices:
                remap = [
                    cls._intern(block_index, block_table, value)
                    for value in getattr(piece, table)
                ]
                piece_ids = getattr(piece, ids)
                if remap == list(range(len(remap))):
                    joined.extend(piece_ids)
                else:
                    joined.extend(map(remap.__getitem__, piece_ids))
            getattr(block, ids).extend(pick(joined))
        offsets = array("Q")
        values = array("I")
        for piece in slices:
            offsets.extend(map(len(values).__add__, piece.addr_offsets[:-1]))
            values.extend(piece.addr_values)
        offsets.append(len(values))
        gathered, ends = block.addr_values, block.addr_offsets
        for row in order:
            gathered.extend(values[offsets[row] : offsets[row + 1]])
            ends.append(len(gathered))
        return block

    # ----- read back ----------------------------------------------------

    def measurement(self, row: int):
        """Reconstruct row ``row`` as a :class:`DnsMeasurement`."""
        record = _results().DnsMeasurement
        lo = self.addr_offsets[row]
        hi = self.addr_offsets[row + 1]
        return record(
            probe_id=self.probe_ids[row],
            timestamp=self.times[row],
            target=self.targets[self.target_ids[row]],
            probe_asn=ASN(self.asns[row]),
            continent=CONTINENTS[self.continents[row]],
            country=self.countries[self.country_ids[row]],
            rcode=self.rcodes[self.rcode_ids[row]],
            chain=self.chains[self.chain_ids[row]],
            addresses=tuple(
                IPv4Address(self.addr_values[position]) for position in range(lo, hi)
            ),
        )

    def iter_measurements(self, lo: int = 0, hi: Optional[int] = None) -> Iterator:
        """Yield reconstructed measurements for rows ``lo..hi``."""
        stop = len(self) if hi is None else hi
        for row in range(lo, stop):
            yield self.measurement(row)

    def __len__(self) -> int:
        return len(self.times)

    @property
    def nbytes(self) -> int:
        """Approximate resident size of the typed columns."""
        total = 0
        for name, _ in _ARRAY_FIELDS:
            column = getattr(self, name)
            total += len(column) * column.itemsize
        return total

    # ----- pickling (worker <-> coordinator exchange) -------------------

    def __getstate__(self) -> tuple:
        arrays = tuple(getattr(self, name) for name, _ in _ARRAY_FIELDS)
        return arrays, self.targets, self.countries, self.rcodes, self.chains

    def __setstate__(self, state: tuple) -> None:
        arrays, self.targets, self.countries, self.rcodes, self.chains = state
        for (name, _), column in zip(_ARRAY_FIELDS, arrays):
            setattr(self, name, column)
        self._drop_indexes()

    # ----- binary segment format ----------------------------------------

    def _framed(self) -> tuple:
        """The (header fields, payload parts) of the binary segment form."""
        fields = {
            "rows": len(self),
            "byteorder": sys.byteorder,
            "tables": {
                "targets": self.targets,
                "countries": self.countries,
                "rcodes": self.rcodes,
                "chains": [list(chain) for chain in self.chains],
            },
            "arrays": [
                [name, typecode, len(getattr(self, name))]
                for name, typecode in _ARRAY_FIELDS
            ],
        }
        return fields, [getattr(self, name).tobytes() for name, _ in _ARRAY_FIELDS]

    def to_bytes(self) -> bytes:
        """Serialize to the compact binary segment form.

        A :class:`~repro.container.Container` frame whose header carries
        the row count, byte order, intern tables and per-array typecode
        + count, and whose payload is the raw arrays concatenated in a
        fixed order.
        """
        return b"".join(_CONTAINER.frame(*self._framed()))

    @classmethod
    def from_bytes(cls, payload) -> "DnsColumns":
        """Deserialize a block written by :meth:`to_bytes`.

        The frame (magic, version, length, checksum) is verified before
        any column is decoded.
        """
        return cls._decode(*_CONTAINER.parse(payload))

    @classmethod
    def _decode(cls, header: dict, body) -> "DnsColumns":
        """Rebuild a block from a verified frame's header and payload."""
        columns = cls.__new__(cls)
        columns.targets = list(header["tables"]["targets"])
        columns.countries = list(header["tables"]["countries"])
        columns.rcodes = list(header["tables"]["rcodes"])
        columns.chains = [tuple(chain) for chain in header["tables"]["chains"]]
        swap = header.get("byteorder", "little") != sys.byteorder
        cursor = 0
        for (name, typecode), (stored_name, stored_code, count) in zip(
            _ARRAY_FIELDS, header["arrays"]
        ):
            if stored_name != name or stored_code != typecode:
                raise SegmentFormatError(
                    f"unexpected column {stored_name}:{stored_code}"
                )
            column = array(typecode)
            nbytes = count * column.itemsize
            if cursor + nbytes > len(body):
                raise SegmentFormatError(f"truncated column {name}")
            column.frombytes(body[cursor : cursor + nbytes])
            if swap:
                column.byteswap()
            setattr(columns, name, column)
            cursor += nbytes
        if cursor != len(body):
            raise SegmentFormatError(
                f"{len(body) - cursor} trailing bytes after last column"
            )
        columns._check(header["rows"])
        columns._drop_indexes()
        return columns

    def _check(self, rows: int) -> None:
        """Raise :class:`SegmentFormatError` unless the decoded columns
        agree: ``rows`` entries per row column, address offsets rising
        from 0 to the address count, every id inside its table and
        timestamps that never decrease.  One C-level pass per column."""
        if any(len(getattr(self, name)) != rows for name in _ROW_FIELDS):
            raise SegmentFormatError(f"columns disagree with the row count {rows}")
        offsets = self.addr_offsets
        if (
            len(offsets) != rows + 1
            or offsets[0] != 0
            or offsets[-1] != len(self.addr_values)
            or not all(map(operator.le, offsets, offsets[1:]))
        ):
            raise SegmentFormatError(
                "address offsets do not rise from 0 to the address count"
            )
        if rows:
            tables = [("continents", CONTINENTS)] + [
                (name, getattr(self, table)) for name, table, _ in _INTERNED_FIELDS
            ]
            for name, table in tables:
                if max(getattr(self, name)) >= len(table):
                    raise SegmentFormatError(f"{name} point past their table")
        times = self.times
        if not all(map(operator.le, times, times[1:])):
            raise SegmentFormatError("timestamps decrease")


class DnsSegment:
    """A sealed, immutable run of rows with a prunable summary.

    The summary (time bounds, unique address ints, size) stays resident
    even after the columns spill to disk, so windowed queries can skip
    a spilled segment without touching the filesystem.
    """

    __slots__ = (
        "segment_id",
        "start_row",
        "rows",
        "min_time",
        "max_time",
        "unique_values",
        "nbytes",
        "path",
        "_columns",
    )

    def __init__(self, columns: DnsColumns, segment_id: int, start_row: int) -> None:
        if not len(columns):
            raise ValueError("cannot seal an empty segment")
        self.segment_id = segment_id
        self.start_row = start_row
        self.rows = len(columns)
        self.min_time = columns.times[0]
        self.max_time = columns.times[-1]
        self.unique_values = frozenset(columns.addr_values)
        self.nbytes = columns.nbytes
        self.path = None
        self._columns: Optional[DnsColumns] = columns

    @property
    def resident(self) -> bool:
        """Whether the columns are currently held in memory."""
        return self._columns is not None

    def spill(self, path) -> int:
        """Write the columns to ``path`` atomically and drop them from memory.

        A crash mid-spill leaves either the old file or no file, never a
        torn payload; a failed write raises :class:`SegmentFormatError`
        and keeps the columns resident.
        """
        if self._columns is None:
            return 0
        _CONTAINER.write(path, *self._columns._framed())
        self.path = path
        self._columns = None
        return self.nbytes

    def load(self) -> DnsColumns:
        """The segment's columns, read back (and verified) if spilled."""
        if self._columns is not None:
            return self._columns
        if self.path is None:
            raise SegmentFormatError(
                f"segment {self.segment_id} has neither columns nor a spill path"
            )
        return DnsColumns._decode(*_CONTAINER.read(self.path))


# (attribute, array typecode): the per-trace columns, then the per-hop
# ones; ``hop_offsets[i]:hop_offsets[i + 1]`` are trace ``i``'s hops.
_TRACE_FIELDS = (
    ("probe_ids", "q"),
    ("times", "d"),
    ("destinations", "I"),
    ("hop_offsets", "Q"),
    ("hop_ttls", "B"),
    ("hop_addrs", "I"),
    ("hop_asns", "I"),
    ("hop_rtts", "d"),
)
_PER_TRACE = ("probe_ids", "times", "destinations")
_PER_HOP = ("hop_ttls", "hop_addrs", "hop_asns", "hop_rtts")


class TracerouteColumns:
    """An append-only columnar block of traceroutes.

    One row per trace (probe id, timestamp, destination address value)
    and one per hop (TTL, address value, ASN number, RTT), the hops of
    trace ``i`` at ``hop_offsets[i]:hop_offsets[i + 1]``.  A hop without
    an AS has ASN 0, which no :class:`~repro.net.asys.ASN` can be.
    Rows convert back to :class:`~repro.atlas.results.TracerouteMeasurement`
    values equal to the ones appended; the path analyses
    (:mod:`repro.analysis.paths`) read the columns directly.
    """

    __slots__ = tuple(name for name, _ in _TRACE_FIELDS)

    def __init__(self) -> None:
        for name, typecode in _TRACE_FIELDS:
            setattr(self, name, array(typecode))
        self.hop_offsets.append(0)

    @classmethod
    def from_measurements(cls, measurements: Iterable) -> "TracerouteColumns":
        """Encode :class:`TracerouteMeasurement` values as one block.

        Built a column at a time, so a value a column cannot hold (a
        TTL past 255, a negative probe id …) raises before any block
        exists.
        """
        traces = list(measurements)
        hops = [hop for trace in traces for hop in trace.hops]
        block = cls.__new__(cls)
        block.probe_ids = array("q", [trace.probe_id for trace in traces])
        block.times = array("d", [trace.timestamp for trace in traces])
        block.destinations = array("I", [trace.destination.value for trace in traces])
        block.hop_offsets = array(
            "Q", accumulate((len(trace.hops) for trace in traces), initial=0)
        )
        block.hop_ttls = array("B", [hop.ttl for hop in hops])
        block.hop_addrs = array("I", [hop.address.value for hop in hops])
        block.hop_asns = array(
            "I", [0 if hop.asn is None else hop.asn.number for hop in hops]
        )
        block.hop_rtts = array("d", [hop.rtt_ms for hop in hops])
        return block

    def extend(self, other: "TracerouteColumns") -> None:
        """Append every row of ``other``, column to column.

        No ordering check: the store that owns this block makes it.
        """
        shift = len(self.hop_ttls)
        for name in _PER_TRACE + _PER_HOP:
            getattr(self, name).extend(getattr(other, name))
        self.hop_offsets.extend(map(shift.__add__, other.hop_offsets[1:]))

    def measurement(self, row: int):
        """Reconstruct row ``row`` as a :class:`TracerouteMeasurement`."""
        results = _results()
        hop = results.TracerouteHop
        lo, hi = self.hop_offsets[row], self.hop_offsets[row + 1]
        return results.TracerouteMeasurement(
            probe_id=self.probe_ids[row],
            timestamp=self.times[row],
            destination=IPv4Address(self.destinations[row]),
            hops=tuple(
                hop(ttl, IPv4Address(address), ASN(asn) if asn else None, rtt)
                for ttl, address, asn, rtt in zip(
                    self.hop_ttls[lo:hi],
                    self.hop_addrs[lo:hi],
                    self.hop_asns[lo:hi],
                    self.hop_rtts[lo:hi],
                )
            ),
        )

    def __len__(self) -> int:
        return len(self.times)

    # ----- checkpoint form ----------------------------------------------

    def state(self) -> dict:
        """The columns by name, copied (arrays pickle as typed bytes)."""
        return {name: getattr(self, name)[:] for name, _ in _TRACE_FIELDS}

    @classmethod
    def from_state(cls, state) -> "TracerouteColumns":
        """Rebuild a block from :meth:`state`, checking it first.

        Every column must be present with its typecode, the columns of
        one kind must agree in length, the hop offsets must rise from 0
        to the hop count, and the timestamps must never decrease;
        anything else raises :class:`ValueError`.
        """
        if not isinstance(state, dict):
            raise ValueError(f"traceroute state is a {type(state).__name__}, not columns")
        block = cls.__new__(cls)
        for name, typecode in _TRACE_FIELDS:
            column = state.get(name)
            if not isinstance(column, array) or column.typecode != typecode:
                raise ValueError(f"traceroute column {name} is not an array({typecode!r})")
            setattr(block, name, column[:])
        traces, hops = len(block.times), len(block.hop_ttls)
        if any(len(getattr(block, name)) != traces for name in _PER_TRACE):
            raise ValueError("traceroute columns disagree on the trace count")
        if any(len(getattr(block, name)) != hops for name in _PER_HOP):
            raise ValueError("hop columns disagree on the hop count")
        offsets = block.hop_offsets
        if (
            len(offsets) != traces + 1
            or offsets[0] != 0
            or offsets[-1] != hops
            or not all(map(operator.le, offsets, offsets[1:]))
        ):
            raise ValueError("hop offsets do not rise from 0 to the hop count")
        times = block.times
        if not all(map(operator.le, times, times[1:])):
            raise ValueError("traceroute timestamps decrease")
        return block
