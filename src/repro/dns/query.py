"""DNS query context and responses.

Authoritative answers in the Apple Meta-CDN depend on *who* asks and
*when* (location-based dynamic DNS resolution, Section 3.2), so every
query carries a :class:`QueryContext` describing the resolving client.
Real CDNs see the recursive resolver's address (or EDNS Client Subnet);
the reproduction passes the client's own attributes, which is equivalent
for RIPE Atlas probes since they resolve locally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Optional

from ..net.geo import Continent, Coordinates, MappingRegion
from ..net.ipv4 import IPv4Address
from .records import RecordType, ResourceRecord, normalize_name

__all__ = ["QueryContext", "RCode", "Question", "DnsResponse"]


class _ClientBytes:
    """``QueryContext.client_bytes``: computed on first read, then stored.

    Not a data descriptor, so once the instance entry exists a read
    never reaches this class, and a context nobody draws for never
    spells its address.  Not a field: equality, hashing and ``repr``
    ignore it.
    """

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        spelled = instance.__dict__["client_bytes"] = str(instance.client).encode()
        return spelled


@dataclass(frozen=True, init=False)
class QueryContext:
    """Everything a policy-driven authoritative server may consider.

    ``now`` is simulation time in seconds since the scenario epoch.
    ``country`` is ISO 3166-1 alpha-2, lowercase (step 1 of the mapping
    chain splits out ``in`` and ``cn``).
    """

    client: IPv4Address
    coordinates: Coordinates
    continent: Continent
    country: str
    now: float = 0.0
    #: The Apple mapping region (us/eu/apac) for this client.  Derived
    #: from ``continent`` once at construction: every policy along the
    #: chain reads it, several times per hop.
    region: MappingRegion = field(init=False, repr=False, compare=False)
    #: ``str(client)`` encoded, the bytes a selection policy's draw hashes.
    client_bytes = _ClientBytes()

    def __init__(
        self,
        client: IPv4Address,
        coordinates: Coordinates,
        continent: Continent,
        country: str,
        now: float = 0.0,
    ) -> None:
        # Stores what the generated ``__init__`` + ``__post_init__``
        # would, without an ``object.__setattr__`` per field (see
        # ``ResolutionStep``): a campaign builds one context per probe
        # per tick.
        fields = self.__dict__
        fields["client"] = client
        fields["coordinates"] = coordinates
        fields["continent"] = continent
        fields["country"] = country
        fields["now"] = now
        fields["region"] = _REGION_OF[continent]

    def at(self, now: float) -> "QueryContext":
        """This context stamped with ``now``: a copy, everything else shared.

        Carries over ``client_bytes`` when it was already read, so a
        vantage that stamps one base context per tick spells its
        address once for the whole run.
        """
        stamped = object.__new__(QueryContext)
        fields = stamped.__dict__
        fields.update(self.__dict__)
        fields["now"] = now
        return stamped


_REGION_OF = {
    continent: MappingRegion.for_continent(continent) for continent in Continent
}


class RCode(Enum):
    """DNS response codes the reproduction distinguishes."""

    NOERROR = 0
    NXDOMAIN = 3
    SERVFAIL = 2
    REFUSED = 5


@dataclass(frozen=True)
class Question:
    """A query for one name and record type."""

    name: str
    rtype: RecordType = RecordType.A

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", normalize_name(self.name))

    def __str__(self) -> str:
        return f"{self.name} {self.rtype}"

    @staticmethod
    def of(name: str, rtype: RecordType = RecordType.A) -> "Question":
        """The shared :class:`Question` for ``(name, rtype)``.

        A chase asks the same few chain names once per hop per client;
        questions are immutable, so the hot paths share one object per
        distinct value instead of normalising a fresh one each time.
        A malformed name raises on every call (errors are not cached).
        """
        return _intern_question(name, rtype)


_intern_question = lru_cache(maxsize=4096)(Question)


@dataclass(frozen=True)
class DnsResponse:
    """An authoritative (or resolved) answer.

    ``answers`` preserves order: for a resolved query the CNAME chain
    comes first, final A records last — mirroring a real DNS answer
    section, which is what the RIPE Atlas probes recorded.
    """

    question: Question
    rcode: RCode = RCode.NOERROR
    answers: tuple[ResourceRecord, ...] = field(default_factory=tuple)
    authoritative: bool = True

    @property
    def cname_chain(self) -> tuple[ResourceRecord, ...]:
        """The CNAME records, in redirect order."""
        return tuple(
            record for record in self.answers if record.rtype is RecordType.CNAME
        )

    @property
    def addresses(self) -> tuple[IPv4Address, ...]:
        """The A record addresses in the answer."""
        return tuple(
            record.address for record in self.answers if record.rtype is RecordType.A
        )

    @property
    def final_name(self) -> str:
        """The last name in the chain (the one the A records belong to)."""
        name = self.question.name
        for record in self.answers:
            if record.rtype is RecordType.CNAME and record.name == name:
                name = record.target
        return name

    def is_empty(self) -> bool:
        """True when the response carries no records."""
        return not self.answers
