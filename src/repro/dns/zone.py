"""Zones and authoritative name servers.

The mapping chain of Figure 2 crosses several operators' DNS estates:
Apple's ``apple.com`` and ``applimg.com``, Akamai's ``akadns.net``,
``akamai.net`` and ``edgesuite.net``, and Limelight's ``llnwi.net``.
Each operator runs an :class:`AuthoritativeServer` hosting one or more
:class:`Zone` objects; a zone binds owner names to answer policies.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .policies import Answer, AnswerPolicy
from .query import DnsResponse, Question, QueryContext, RCode
from .records import RecordType, ResourceRecord, is_subdomain, normalize_name

__all__ = ["Zone", "AuthoritativeServer"]


class Zone:
    """One DNS zone: an origin plus policy-driven owner names.

    >>> zone = Zone("apple.com")
    >>> zone.origin
    'apple.com'
    """

    def __init__(self, origin: str) -> None:
        self.origin = normalize_name(origin)
        self._policies: dict[str, AnswerPolicy] = {}

    def bind(self, name: str, policy: AnswerPolicy) -> None:
        """Attach ``policy`` as the answer source for ``name``.

        ``name`` must be inside the zone.  Re-binding replaces the old
        policy, which is how scenario code models operator
        reconfiguration mid-measurement.
        """
        owner = normalize_name(name)
        if not is_subdomain(owner, self.origin):
            raise ValueError(f"{owner!r} is outside zone {self.origin!r}")
        self._policies[owner] = policy

    def answer_at(self, name: str, now: float) -> Optional[Answer]:
        """The answer ``name`` gives at ``now``, bound for any client.

        ``None`` means the name is not bound.  The bulk chase binds each
        chain name once per tick this way and asks the result for every
        client; :meth:`answer` is the one-client call of it.
        """
        policy = self._policies.get(name)
        if policy is None:
            return None
        return policy.bind(name, now)

    def answer(
        self, name: str, context: QueryContext
    ) -> Optional[tuple[ResourceRecord, ...]]:
        """The records this zone holds for ``name`` as seen from ``context``.

        This is the record-level answer, the one place a bound name
        becomes records: :meth:`AuthoritativeServer.query_in_zone` wraps
        it in a message for the live edge, and the in-memory chase of
        :mod:`repro.dns.resolver` asks :meth:`answer_at` for the same
        records.  ``None`` means the name is not bound (NXDOMAIN at the
        message level); a bound name whose policy currently answers
        nothing yields ``()`` (NODATA).  ``name`` must already be
        normalised — a :class:`Question`'s name or a record's target,
        which is all either caller ever holds.
        """
        answer = self.answer_at(name, context.now)
        if answer is None:
            return None
        records = answer(context)
        return records if type(records) is tuple else tuple(records)

    def covers(self, name: str) -> bool:
        """Whether ``name`` belongs to this zone."""
        return is_subdomain(normalize_name(name), self.origin)

    def names(self) -> Iterator[str]:
        """All bound owner names."""
        return iter(self._policies)

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and normalize_name(name) in self._policies

    def __len__(self) -> int:
        return len(self._policies)


class AuthoritativeServer:
    """An operator's authoritative DNS service over a set of zones.

    ``operator`` is a display label ("Apple", "Akamai", ...) used by the
    analysis layer when attributing decision points in the reconstructed
    mapping graph (two of the three selection steps are run by Akamai,
    one by Apple — a headline takeaway of Section 3.2).
    """

    def __init__(self, operator: str, zones: Optional[list[Zone]] = None) -> None:
        self.operator = operator
        self._zones: list[Zone] = []
        for zone in zones or []:
            self.add_zone(zone)

    def add_zone(self, zone: Zone) -> Zone:
        """Serve ``zone`` from this server; returns the zone."""
        self._zones.append(zone)
        # Longest origin first so the most specific zone wins.
        self._zones.sort(key=lambda z: z.origin.count("."), reverse=True)
        return zone

    @property
    def zones(self) -> tuple[Zone, ...]:
        """Every hosted zone, most specific first."""
        return tuple(self._zones)

    def zone_for(self, name: str) -> Optional[Zone]:
        """The most specific zone covering ``name``, if any."""
        for zone in self._zones:
            if zone.covers(name):
                return zone
        return None

    def query(self, question: Question, context: QueryContext) -> DnsResponse:
        """Answer ``question`` authoritatively.

        Returns REFUSED for names outside all zones, NXDOMAIN for
        covered-but-unbound names.  A bound name answered by a policy
        yields NOERROR even if the policy currently returns no records
        (an empty, NODATA-style answer).
        """
        return self.query_in_zone(self.zone_for(question.name), question, context)

    def query_in_zone(
        self, zone: Optional[Zone], question: Question, context: QueryContext
    ) -> DnsResponse:
        """Answer ``question`` from an already-located ``zone``.

        The bulk resolution path locates the (server, zone) pair once
        per distinct name and tick instead of once per client; passing
        the zone here skips the per-query linear scan while producing
        the byte-identical answer :meth:`query` would.  ``zone=None``
        means no hosted zone covers the name (REFUSED, as in
        :meth:`query`).  The records themselves come from
        :meth:`Zone.answer`; this is its message wrapper.
        """
        if zone is None:
            return DnsResponse(question=question, rcode=RCode.REFUSED)
        records = zone.answer(question.name, context)
        if records is None:
            return DnsResponse(question=question, rcode=RCode.NXDOMAIN)
        if question.rtype is not RecordType.A:
            records = tuple(
                record for record in records if record.rtype is question.rtype
            )
        return DnsResponse(question=question, answers=records)

    def __str__(self) -> str:
        origins = ", ".join(zone.origin for zone in self._zones)
        return f"AuthoritativeServer({self.operator}: {origins})"
