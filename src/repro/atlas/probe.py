"""RIPE Atlas probes.

A probe is a small measurement device in a volunteer's network: it has
a public address, lives in an AS, has a location, and resolves DNS via
a local recursive resolver (so each probe sees its own TTL-cached view
of the mapping chain — exactly the vantage-point diversity the paper's
methodology is built on).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..dns.query import QueryContext, RCode
from ..dns.resolver import RecursiveResolver, ResolutionError
from ..dns.zone import AuthoritativeServer
from ..net.asys import ASN
from ..net.geo import Continent, Coordinates
from ..net.ipv4 import IPv4Address
from ..net.locode import Location
from .results import DnsMeasurement

__all__ = ["AtlasProbe", "outcome_fields"]


def outcome_fields(target: str, outcome) -> tuple[str, tuple, tuple]:
    """What a measurement records of one outcome: (rcode, chain, addresses).

    ``outcome`` is a completed :class:`~repro.dns.resolver.Resolution`
    or the :class:`~repro.dns.resolver.ResolutionError` the chase died
    with, which is recorded as SERVFAIL on the bare target.
    """
    if isinstance(outcome, ResolutionError):
        return RCode.SERVFAIL.name, (target,), ()
    # ``_name_``, not ``name``: on Python 3.11 the ``name`` property of an
    # enum member is a Python-level descriptor call, once per probe per tick.
    return outcome.rcode._name_, outcome.chain_names, outcome.addresses


@dataclass
class AtlasProbe:
    """One probe: identity, placement and its local resolver."""

    probe_id: int
    address: IPv4Address
    asn: ASN
    location: Location
    resolver: RecursiveResolver
    _base: Optional[QueryContext] = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def create(
        cls,
        probe_id: int,
        address: IPv4Address,
        asn: ASN,
        location: Location,
        servers: Iterable[AuthoritativeServer],
    ) -> "AtlasProbe":
        """Build a probe with its own caching recursive resolver."""
        return cls(
            probe_id=probe_id,
            address=address,
            asn=asn,
            location=location,
            resolver=RecursiveResolver(servers, cache=True),
        )

    @property
    def continent(self) -> Continent:
        """The continent the probe reports from."""
        return self.location.continent

    @property
    def country(self) -> str:
        """ISO country code of the probe's metro."""
        return self.location.country

    @property
    def coordinates(self) -> Coordinates:
        """The probe's location."""
        return self.location.coordinates

    def context(self, now: float) -> QueryContext:
        """The DNS query context this probe presents at ``now``.

        A stamped copy of one base context built on first use, its
        address text already spelled.  A DNS campaign asks for one per
        probe on its first tick and reuses it, giving later sweeps their
        time as :func:`~repro.dns.resolver.resolve_bulk`'s ``now``.
        """
        base = self._base
        if base is None:
            base = self._base = QueryContext(
                client=self.address,
                coordinates=self.coordinates,
                continent=self.continent,
                country=self.country,
            )
            base.client_bytes  # spelled once, carried by every stamp
        return base.at(now)

    def resolve_dns(self, target: str, now: float):
        """Resolve ``target`` now; a failed chase is returned, not raised.

        A probe in the field reports what it saw, so the
        :class:`~repro.dns.resolver.ResolutionError` a chase died with
        is an outcome like any other — the same two shapes
        :func:`~repro.dns.resolver.resolve_bulk` returns.
        """
        try:
            return self.resolver.resolve(target, self.context(now))
        except ResolutionError as exc:
            return exc

    def measure_dns(self, target: str, now: float) -> DnsMeasurement:
        """Perform one DNS measurement, RIPE-Atlas style.

        Resolution failures are recorded as results with an error
        rcode, not raised.
        """
        return self.measurement_from(target, now, self.resolve_dns(target, now))

    def measurement_from(self, target: str, now: float, outcome) -> DnsMeasurement:
        """Wrap a resolution outcome as the measurement record."""
        rcode, chain, addresses = outcome_fields(target, outcome)
        return DnsMeasurement(
            probe_id=self.probe_id,
            timestamp=now,
            target=target,
            probe_asn=self.asn,
            continent=self.continent,
            country=self.country,
            rcode=rcode,
            chain=chain,
            addresses=addresses,
        )

    def __str__(self) -> str:
        return f"probe#{self.probe_id} ({self.location.city}, {self.asn})"
