"""DNS names, record types and resource records.

The Apple Meta-CDN's request mapping is implemented entirely in DNS
(Section 3.2): a chain of CNAME redirects with carefully chosen TTLs ends
in A records for cache servers.  The reproduction models exactly the
record types that chain uses: A, CNAME, NS and SOA.

Names are represented as normalised lowercase strings without a trailing
dot (``"appldnld.apple.com"``).  :func:`normalize_name` is the single
place that normalisation happens.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Union

from ..net.ipv4 import IPv4Address

__all__ = [
    "RecordType",
    "ResourceRecord",
    "ARecord",
    "CnameRecord",
    "normalize_name",
    "is_subdomain",
    "NameError_",
]

_LABEL = re.compile(r"^[a-z0-9_]([a-z0-9_-]{0,61}[a-z0-9_])?$")


class NameError_(ValueError):
    """Raised for malformed DNS names (trailing underscore avoids the builtin)."""


_NAME_BOUND = 16384
_NORMALIZED: dict = {}


def normalize_name(name: str) -> str:
    """Lowercase ``name`` and strip any trailing dot; validate labels.

    The same few dozen chain names are normalised millions of times per
    simulation run (every record construction and zone lookup funnels
    through here), so results are memoised in a dict emptied past
    16 384 names; the function is pure and validation errors are never
    stored.

    >>> normalize_name("AppLDNLD.Apple.COM.")
    'appldnld.apple.com'
    """
    cleaned = _NORMALIZED.get(name)
    if cleaned is None:
        cleaned = _normalize(name)
        if len(_NORMALIZED) >= _NAME_BOUND:
            _NORMALIZED.clear()
        _NORMALIZED[name] = cleaned
    return cleaned


def _normalize(name: str) -> str:
    """:func:`normalize_name` without the memo."""
    cleaned = name.strip().lower().rstrip(".")
    if not cleaned:
        raise NameError_("empty DNS name")
    if len(cleaned) > 253:
        raise NameError_(f"name too long: {cleaned[:40]}...")
    for label in cleaned.split("."):
        if not _LABEL.match(label):
            raise NameError_(f"bad label {label!r} in {cleaned!r}")
    return cleaned


def is_subdomain(name: str, zone: str) -> bool:
    """Whether ``name`` equals or falls under ``zone`` (both normalised)."""
    return name == zone or name.endswith("." + zone)


class RecordType(str, Enum):
    """The record types the reproduction uses.

    PTR exists for the reverse-DNS enumeration of Section 3.3 (the
    authors walked ``17.0.0.0/8`` PTR records to recover server names).
    """

    A = "A"
    AAAA = "AAAA"  # queried but never answered: the Meta-CDN is IPv4-only
    CNAME = "CNAME"
    NS = "NS"
    SOA = "SOA"
    PTR = "PTR"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class ResourceRecord:
    """One DNS resource record.

    ``data`` is an :class:`IPv4Address` for A records and a normalised
    name string for CNAME/NS records.  ``ttl`` is in seconds; the paper
    highlights the 15 s TTL on the Meta-CDN selection CNAME as the knob
    enabling quick reroutes.
    """

    name: str
    rtype: RecordType
    ttl: int
    data: Union[IPv4Address, str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", normalize_name(self.name))
        if self.ttl < 0:
            raise ValueError(f"negative TTL: {self.ttl}")
        if self.rtype is RecordType.A:
            if not isinstance(self.data, IPv4Address):
                raise TypeError("A record data must be an IPv4Address")
        elif self.rtype in (RecordType.CNAME, RecordType.NS, RecordType.PTR):
            if not isinstance(self.data, str):
                raise TypeError(f"{self.rtype} record data must be a name")
            object.__setattr__(self, "data", normalize_name(self.data))

    @property
    def target(self) -> str:
        """The CNAME/NS target name (raises for A records)."""
        if not isinstance(self.data, str):
            raise TypeError(f"{self.rtype} record has no target name")
        return self.data

    @property
    def address(self) -> IPv4Address:
        """The A record address (raises for name-valued records)."""
        if not isinstance(self.data, IPv4Address):
            raise TypeError(f"{self.rtype} record has no address")
        return self.data

    def __str__(self) -> str:
        return f"{self.name} {self.ttl} IN {self.rtype} {self.data}"


# The replay builds one record per answer per hop (~1 300 per engine
# step) out of a few thousand distinct values, so the two constructors
# below intern: equal arguments return the same immutable object and
# validation runs once per distinct value — at the cost of one dict
# probe, one table per record type.  The key carries ``type(ttl)``
# because ``15`` and ``15.0`` are equal keys but make records that
# differ in field type; a raising construction is never stored, so bad
# input raises every time.  Past the bound (several times the ~1 350
# distinct records of a full Sep 17-21 replay, at roughly 0.5 KB per
# entry) a table is emptied and refills.
_INTERN_BOUND = 8192
_A_RECORDS: dict = {}
_CNAME_RECORDS: dict = {}


def _interned(table: dict, key: tuple, name: str, rtype: RecordType, ttl, data):
    """Build the record a lookup of ``key`` in ``table`` missed, and store it."""
    record = ResourceRecord(name, rtype, ttl, data)
    if len(table) >= _INTERN_BOUND:
        table.clear()
    table[key] = record
    return record


def ARecord(name: str, address: IPv4Address, ttl: int) -> ResourceRecord:
    """Convenience constructor for an A record (interned, see above)."""
    key = (name, address, ttl, type(ttl))
    record = _A_RECORDS.get(key)
    if record is None:
        record = _interned(_A_RECORDS, key, name, RecordType.A, ttl, address)
    return record


def CnameRecord(name: str, target: str, ttl: int) -> ResourceRecord:
    """Convenience constructor for a CNAME record (interned, see above)."""
    key = (name, target, ttl, type(ttl))
    record = _CNAME_RECORDS.get(key)
    if record is None:
        record = _interned(_CNAME_RECORDS, key, name, RecordType.CNAME, ttl, target)
    return record


def PtrRecord(name: str, target: str, ttl: int) -> ResourceRecord:
    """Convenience constructor for a PTR record."""
    return ResourceRecord(name=name, rtype=RecordType.PTR, ttl=ttl, data=target)
