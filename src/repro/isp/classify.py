"""Offload and overflow classification (Section 5.1).

The paper's two definitions, implemented verbatim:

* **Offload** — traffic the Apple Meta-CDN delivers via third-party CDN
  servers, i.e. the *Source AS* (origin of the server's address) is a
  third-party CDN.
* **Overflow** — traffic received from non-direct neighbours: the
  Source AS and the *handover AS* (the direct neighbour on the ingress
  link) differ.

The two are orthogonal: Akamai traffic via a transit AS is both;
Apple traffic via a transit AS is overflow only; Akamai traffic over a
direct Akamai link is offload only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from ..net.asys import ASN
from ..net.ipv4 import IPv4Address
from .bgp import BgpRib
from .netflow import FlowRecord
from .topology import EyeballIsp

__all__ = [
    "ClassifiedFlow",
    "TrafficClassifier",
    "THIRD_PARTY_OPERATORS",
    "is_overflow",
]

THIRD_PARTY_OPERATORS = frozenset({"Akamai", "Limelight"})


def is_overflow(source_asn: Optional[ASN], handover_asn: ASN) -> bool:
    """Received from a non-direct neighbour (Source AS != handover)."""
    return source_asn is not None and source_asn != handover_asn


@dataclass(frozen=True)
class ClassifiedFlow:
    """A flow record plus the Section 5.1 attribution."""

    flow: FlowRecord
    source_asn: Optional[ASN]
    handover_asn: ASN
    operator: Optional[str]  # CDN operating the server, if known

    @property
    def is_offload(self) -> bool:
        """Delivered by a third-party CDN on Apple's behalf."""
        return self.operator in THIRD_PARTY_OPERATORS

    @property
    def is_overflow(self) -> bool:
        """Received from a non-direct neighbour (Source AS != handover)."""
        return is_overflow(self.source_asn, self.handover_asn)


class TrafficClassifier:
    """Cross-correlates flows with BGP, link data and DNS observations.

    ``operator_of`` maps a server address to the CDN operating it; the
    paper derives this set from the RIPE Atlas DNS measurements ("we
    select all CDN server IPs observed in RIPE Atlas DNS measurements
    to the Apple Meta-CDN ... and cross-correlate them with Netflow").
    """

    def __init__(
        self,
        isp: EyeballIsp,
        rib: BgpRib,
        operator_of: Callable[[IPv4Address], Optional[str]],
    ) -> None:
        self._isp = isp
        self._rib = rib
        self._operator_of = operator_of

    def attribute(
        self, src: IPv4Address, link_id: str
    ) -> tuple[Optional[ASN], ASN, Optional[str]]:
        """(Source AS, handover AS, operator) of traffic from ``src`` on a link."""
        return (
            self._rib.origin_asn(src),
            self._isp.handover_for(link_id),
            self._operator_of(src),
        )

    def classify(self, flow: FlowRecord) -> ClassifiedFlow:
        """Attribute one flow record."""
        return ClassifiedFlow(flow, *self.attribute(flow.src, flow.link_id))

    def classify_all(self, flows: Iterable[FlowRecord]) -> Iterator[ClassifiedFlow]:
        """Attribute a stream of flow records.

        The attribution depends only on the source address and the
        ingress link, and a flow log holds a few hundred distinct pairs
        under hundreds of thousands of records — so it is worked out
        once per pair and stamped on each of the pair's flows.  The
        per-pair table lives for this one pass only.
        """
        attributions: dict[tuple[int, str], tuple] = {}
        for flow in flows:
            src = flow.src
            key = (src.value, flow.link_id)
            attribution = attributions.get(key)
            if attribution is None:
                attribution = attributions[key] = self.attribute(src, flow.link_id)
            yield ClassifiedFlow(flow, *attribution)

    def overflow_traffic(
        self, flows: Iterable[FlowRecord], operator: Optional[str] = None
    ) -> Iterator[ClassifiedFlow]:
        """Only overflow flows, optionally for one CDN operator."""
        for classified in self.classify_all(flows):
            if not classified.is_overflow:
                continue
            if operator is not None and classified.operator != operator:
                continue
            yield classified
