"""Reverse DNS: ``in-addr.arpa`` names and PTR zones.

Section 3.3's methodology starts from reverse DNS: scanning Apple's
``17.0.0.0/8`` and resolving PTR records yields the
``usnyc3-vip-bx-008.aaplimg.com`` names that the Table 1 grammar then
decodes.  This module provides the ``in-addr.arpa`` naming, a builder
that turns an address→hostname table into an authoritative PTR zone,
and a scanner that enumerates a prefix through actual DNS queries —
so the discovery pipeline can run end to end over the DNS substrate
instead of reading the table directly.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from ..net.ipv4 import IPv4Address, IPv4Prefix
from .policies import StaticPolicy
from .query import Question, QueryContext, RCode
from .records import PtrRecord, RecordType
from .zone import AuthoritativeServer, Zone

__all__ = [
    "reverse_name",
    "address_from_reverse_name",
    "build_ptr_zone",
    "scan_ptr_records",
]

_ARPA_SUFFIX = "in-addr.arpa"


def reverse_name(address: IPv4Address) -> str:
    """The PTR owner name for ``address``.

    >>> from repro.net.ipv4 import IPv4Address
    >>> reverse_name(IPv4Address.parse("17.253.0.8"))
    '8.0.253.17.in-addr.arpa'
    """
    octets = address.octets
    return f"{octets[3]}.{octets[2]}.{octets[1]}.{octets[0]}.{_ARPA_SUFFIX}"


def address_from_reverse_name(name: str) -> IPv4Address:
    """Invert :func:`reverse_name`; raises ``ValueError`` otherwise."""
    cleaned = name.strip().lower().rstrip(".")
    if not cleaned.endswith("." + _ARPA_SUFFIX):
        raise ValueError(f"not an in-addr.arpa name: {name!r}")
    labels = cleaned[: -len(_ARPA_SUFFIX) - 1].split(".")
    if len(labels) != 4:
        raise ValueError(f"expected four octet labels: {name!r}")
    try:
        octets = [int(label) for label in reversed(labels)]
    except ValueError as exc:
        raise ValueError(f"non-numeric octet in {name!r}") from exc
    return IPv4Address.parse(".".join(str(octet) for octet in octets))


def build_ptr_zone(ptr_table: Mapping[IPv4Address, str]) -> AuthoritativeServer:
    """Apple's authoritative server answering PTR queries from a table.

    The zone origin is ``in-addr.arpa`` (one server for the whole
    table regardless of which prefixes it spans), with one static PTR
    record per address, one day's TTL each.
    """
    zone = Zone(_ARPA_SUFFIX)
    for address, hostname in ptr_table.items():
        owner = reverse_name(address)
        zone.bind(owner, StaticPolicy((PtrRecord(owner, hostname, 86400),)))
    return AuthoritativeServer("Apple", [zone])


def scan_ptr_records(
    server: AuthoritativeServer,
    prefix: IPv4Prefix,
    context: QueryContext,
    addresses: Optional[Iterable[IPv4Address]] = None,
) -> dict[IPv4Address, str]:
    """Enumerate PTR records over ``prefix`` via real DNS queries.

    ``addresses`` restricts the sweep (a full /8 is 16.7 M queries —
    the paper scanned it over time; callers usually sweep the /16
    delivery range).  Returns only the addresses that resolved.
    """
    found: dict[IPv4Address, str] = {}
    candidates = addresses if addresses is not None else prefix.addresses()
    for address in candidates:
        if not prefix.contains(address):
            continue
        response = server.query(
            Question(reverse_name(address), RecordType.PTR), context
        )
        if response.rcode is not RCode.NOERROR:
            continue
        for record in response.answers:
            if record.rtype is RecordType.PTR:
                found[address] = record.target
                break
    return found
