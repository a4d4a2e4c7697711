"""Aquatone-style DNS name enumeration (the paper's reference [21]).

Besides reverse DNS, the authors enumerated Apple's server names with a
domain-flyover tool: generate candidate hostnames from the (partially
known) grammar and test which ones resolve.  This module reproduces
that: candidates come from the Table 1 scheme over a locode list, and
each is checked with a real A query against the authoritative
``aaplimg.com`` server.  The result feeds the same
:func:`~repro.analysis.sites.discover_sites` pipeline as the PTR scan —
two independent routes to Figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from ..apple.naming import AAPLIMG_DOMAIN, format_hostname
from ..cdn.server import SecondaryFunction, ServerFunction
from ..dns.query import Question, QueryContext, RCode
from ..dns.records import RecordType
from ..dns.zone import AuthoritativeServer
from ..net.ipv4 import IPv4Address

__all__ = ["EnumerationResult", "generate_candidates", "enumerate_names"]

# The function/secondary combinations worth probing: delivery roles
# plus the support roles Table 1 lists.
_PROBE_ROLES: tuple[tuple[ServerFunction, Optional[SecondaryFunction], int], ...] = (
    (ServerFunction.VIP, SecondaryFunction.BX, 16),
    (ServerFunction.EDGE, SecondaryFunction.BX, 64),
    (ServerFunction.EDGE, SecondaryFunction.LX, 4),
    (ServerFunction.GSLB, None, 4),
    (ServerFunction.DNS, None, 4),
    (ServerFunction.NTP, None, 4),
    (ServerFunction.TOOL, None, 4),
)
# Site ids tried per locode.
_MAX_SITE_ID = 3


@dataclass(frozen=True)
class EnumerationResult:
    """What an enumeration sweep found."""

    hits: dict  # hostname -> IPv4Address
    candidates_tried: int

    @property
    def hit_ratio(self) -> float:
        """Fraction of candidates that resolved."""
        if self.candidates_tried == 0:
            return 0.0
        return len(self.hits) / self.candidates_tried

    def ptr_table(self) -> dict:
        """The hits re-keyed as an address->hostname table.

        Directly consumable by
        :func:`~repro.analysis.sites.discover_sites`.
        """
        return {address: hostname for hostname, address in self.hits.items()}


def generate_candidates(locodes: Iterable[str]) -> Iterator[str]:
    """Yield candidate hostnames from the Table 1 grammar."""
    for locode in locodes:
        for site_id in range(1, _MAX_SITE_ID + 1):
            for function, secondary, max_server_id in _PROBE_ROLES:
                for server_id in range(1, max_server_id + 1):
                    yield format_hostname(
                        locode, site_id, function, secondary, server_id,
                        AAPLIMG_DOMAIN,
                    )


def enumerate_names(
    server: AuthoritativeServer,
    context: QueryContext,
    locodes: Iterable[str],
) -> EnumerationResult:
    """Probe every candidate with an A query; collect the resolvers."""
    hits: dict[str, IPv4Address] = {}
    tried = 0
    for hostname in generate_candidates(locodes):
        tried += 1
        response = server.query(Question(hostname, RecordType.A), context)
        if response.rcode is not RCode.NOERROR:
            continue
        addresses = response.addresses
        if addresses:
            hits[hostname] = addresses[0]
    return EnumerationResult(hits=hits, candidates_tried=tried)
