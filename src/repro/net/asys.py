"""Autonomous systems and organisation registry.

Sections 4 and 5 of the paper reason at the AS level: which AS originates
traffic (*source AS*), which AS hands it over to the eyeball ISP
(*handover AS*), and to which organisation (Apple, Akamai, Limelight,
...) an observed cache IP belongs.  This module provides:

* :class:`ASN` -- an autonomous system number.
* :class:`AutonomousSystem` -- an AS plus its organisation and announced
  prefixes.
* :class:`ASRegistry` -- prefix-to-AS resolution (longest-prefix match)
  and organisation bookkeeping, playing the role the BGP feeds + IP-to-AS
  data played for the authors.

The well-known ASNs of the organisations in the paper are provided as
constants; their values match the real registries (Apple AS714, Akamai
AS20940, Limelight AS22822) so that analysis output is
recognisable next to the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .ipv4 import IPv4Address, IPv4Prefix
from .trie import PrefixTrie

__all__ = [
    "ASN",
    "AutonomousSystem",
    "ASRegistry",
    "AS_APPLE",
    "AS_AKAMAI",
    "AS_LIMELIGHT",
]


@dataclass(frozen=True, order=True)
class ASN:
    """An autonomous system number.

    >>> str(ASN(714))
    'AS714'
    """

    number: int

    def __post_init__(self) -> None:
        if not 0 < self.number <= 4294967295:
            raise ValueError(f"ASN out of range: {self.number}")

    def __str__(self) -> str:
        return f"AS{self.number}"

    def __int__(self) -> int:
        return self.number


AS_APPLE = ASN(714)
AS_AKAMAI = ASN(20940)
AS_LIMELIGHT = ASN(22822)


@dataclass
class AutonomousSystem:
    """An AS: number, owning organisation, and announced prefixes."""

    asn: ASN
    organisation: str
    prefixes: list[IPv4Prefix] = field(default_factory=list)

    def announce(self, prefix: IPv4Prefix) -> None:
        """Add ``prefix`` to the set announced by this AS."""
        if prefix not in self.prefixes:
            self.prefixes.append(prefix)

    def __str__(self) -> str:
        return f"{self.asn} ({self.organisation})"


class ASRegistry:
    """IP-to-AS and AS-to-organisation resolution.

    The registry is the reproduction's stand-in for the combination of
    public BGP data and WHOIS the authors used to attribute cache IPs to
    CDN operators (e.g. "Akamai other AS" in Figures 4 and 5 denotes
    Akamai-operated caches whose IP is *not* in Akamai's own AS).
    """

    def __init__(self) -> None:
        self._by_asn: dict[ASN, AutonomousSystem] = {}
        self._trie: PrefixTrie[ASN] = PrefixTrie()

    def register(self, autonomous_system: AutonomousSystem) -> AutonomousSystem:
        """Add an AS (idempotent for the same ASN) and index its prefixes."""
        existing = self._by_asn.get(autonomous_system.asn)
        if existing is None:
            self._by_asn[autonomous_system.asn] = autonomous_system
            existing = autonomous_system
        for prefix in autonomous_system.prefixes:
            self._trie.insert(prefix, autonomous_system.asn)
        return existing

    def create(
        self, asn: ASN, organisation: str, prefixes: Iterable[IPv4Prefix] = ()
    ) -> AutonomousSystem:
        """Convenience constructor: create, register and return an AS."""
        autonomous_system = AutonomousSystem(asn, organisation, list(prefixes))
        return self.register(autonomous_system)

    def announce(self, asn: ASN, prefix: IPv4Prefix) -> None:
        """Record that ``asn`` announces ``prefix``."""
        if asn not in self._by_asn:
            raise KeyError(f"unknown {asn}; register it first")
        self._by_asn[asn].announce(prefix)
        self._trie.insert(prefix, asn)

    def asn_for(self, address: IPv4Address) -> Optional[ASN]:
        """Longest-prefix-match origin AS for ``address``."""
        return self._trie.lookup(address)

    def get(self, asn: ASN) -> Optional[AutonomousSystem]:
        """The registered AS for ``asn``, or ``None``."""
        return self._by_asn.get(asn)

    def __contains__(self, asn: object) -> bool:
        return asn in self._by_asn

    def __len__(self) -> int:
        return len(self._by_asn)

    def __iter__(self) -> Iterator[AutonomousSystem]:
        return iter(self._by_asn.values())
