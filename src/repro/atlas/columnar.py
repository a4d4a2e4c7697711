"""Columnar (struct-of-arrays) storage for DNS measurement records.

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
* :class:`DnsRowRef` — a (block, row) handle used by the sharded
  engine to ship measurement slices between processes in columnar
  form and absorb them without rebuilding objects.

Everything round-trips exactly: a reconstructed row compares equal to
the measurement that was appended, which is what keeps golden-run
summaries byte-identical across the columnar swap.
"""

from __future__ import annotations

import sys
from array import array
from typing import Iterator, List, NamedTuple, Optional, Sequence

from ..container import Container
from ..net.asys import ASN
from ..net.geo import Continent
from ..net.ipv4 import IPv4Address

__all__ = [
    "CONTINENTS",
    "CONTINENT_INDEX",
    "DnsColumns",
    "DnsRowRef",
    "DnsSegment",
    "SegmentFormatError",
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

_DNS_MEASUREMENT = None


def _record_type():
    """The DnsMeasurement class (imported lazily to avoid a cycle)."""
    global _DNS_MEASUREMENT
    if _DNS_MEASUREMENT is None:
        from .results import DnsMeasurement

        _DNS_MEASUREMENT = DnsMeasurement
    return _DNS_MEASUREMENT


class SegmentFormatError(ValueError):
    """Raised for a malformed, unreadable or unwritable segment payload."""


_CONTAINER = Container(b"RSEG2\n", 2, SegmentFormatError, "segment")


class DnsRowRef(NamedTuple):
    """One row of a columnar block, addressable without decoding it."""

    columns: "DnsColumns"
    row: int


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

    def append_values(
        self,
        probe_id: int,
        timestamp: float,
        target: str,
        asn: int,
        continent: int,
        country: str,
        rcode: str,
        chain: tuple,
        addresses: Sequence[int],
    ) -> None:
        """Append one row given as column values.

        ``asn`` is the AS number, ``continent`` its :data:`CONTINENT_INDEX`
        position and ``addresses`` the packed IPv4 ints — the forms the
        columns store, so a producer that already holds them (a campaign
        tick, another block's row) lands a row without building a
        :class:`DnsMeasurement` first.
        """
        self._ensure_indexes()
        self.times.append(timestamp)
        self.probe_ids.append(probe_id)
        self.asns.append(asn)
        self.continents.append(continent)
        self.target_ids.append(self._intern(self._target_index, self.targets, target))
        self.country_ids.append(
            self._intern(self._country_index, self.countries, country)
        )
        self.rcode_ids.append(self._intern(self._rcode_index, self.rcodes, rcode))
        self.chain_ids.append(self._intern(self._chain_index, self.chains, chain))
        self.addr_values.extend(addresses)
        self.addr_offsets.append(len(self.addr_values))

    @staticmethod
    def values_of(measurement) -> tuple:
        """A :class:`DnsMeasurement` as the argument tuple of :meth:`append_values`."""
        return (
            measurement.probe_id,
            measurement.timestamp,
            measurement.target,
            measurement.probe_asn.number,
            CONTINENT_INDEX[measurement.continent],
            measurement.country,
            measurement.rcode,
            measurement.chain,
            [address.value for address in measurement.addresses],
        )

    def append(self, measurement) -> None:
        """Append one :class:`DnsMeasurement` as a columnar row."""
        self.append_values(*self.values_of(measurement))

    def row_values(self, row: int) -> tuple:
        """Row ``row`` as the argument tuple of :meth:`append_values`."""
        return (
            self.probe_ids[row],
            self.times[row],
            self.targets[self.target_ids[row]],
            self.asns[row],
            self.continents[row],
            self.countries[self.country_ids[row]],
            self.rcodes[self.rcode_ids[row]],
            self.chains[self.chain_ids[row]],
            self.addr_values[self.addr_offsets[row] : self.addr_offsets[row + 1]],
        )

    def append_row_from(self, other: "DnsColumns", row: int) -> None:
        """Copy one row out of ``other`` without building an object."""
        self.append_values(*other.row_values(row))

    @classmethod
    def from_measurements(cls, measurements: Sequence) -> "DnsColumns":
        """Encode a measurement sequence as one columnar block."""
        columns = cls()
        for measurement in measurements:
            columns.append(measurement)
        return columns

    # ----- read back ----------------------------------------------------

    def measurement(self, row: int):
        """Reconstruct row ``row`` as a :class:`DnsMeasurement`."""
        record = _record_type()
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
        # Rebuilt lazily, and only if this block is appended to again.
        self._target_index = None
        self._country_index = None
        self._rcode_index = None
        self._chain_index = None

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
        if len(columns.addr_offsets) != header["rows"] + 1:
            raise SegmentFormatError("offset column does not match row count")
        columns._target_index = None
        columns._country_index = None
        columns._rcode_index = None
        columns._chain_index = None
        return columns


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
