"""IPv4 addresses and prefixes.

The reproduction models every network entity (CDN caches, DNS servers,
RIPE Atlas probes, ISP border routers) with concrete IPv4 addresses, so
this module provides a small, fast, dependency-free IPv4 layer:

* :class:`IPv4Address` -- an immutable 32-bit address.
* :class:`IPv4Prefix` -- a CIDR prefix with containment and iteration.

Only IPv4 is modelled: the paper found that none of the Apple Meta-CDN
mapping entry points respond to IPv6 resolution (Section 3.2).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

__all__ = ["IPv4Address", "IPv4Prefix", "AddressError"]

_DOTTED_QUAD = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")

_MAX = 0xFFFFFFFF


class AddressError(ValueError):
    """Raised for malformed addresses or prefixes."""


@dataclass(frozen=True, order=True)
class IPv4Address:
    """An immutable IPv4 address backed by a 32-bit integer.

    >>> IPv4Address.parse("17.253.0.1").value
    301858817
    >>> str(IPv4Address(301858817))
    '17.253.0.1'
    """

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= _MAX:
            raise AddressError(f"address out of range: {self.value}")

    @classmethod
    def parse(cls, text: str) -> "IPv4Address":
        """Parse a dotted-quad string such as ``"17.253.0.1"``."""
        match = _DOTTED_QUAD.match(text.strip())
        if match is None:
            raise AddressError(f"not a dotted quad: {text!r}")
        octets = [int(part) for part in match.groups()]
        if any(octet > 255 for octet in octets):
            raise AddressError(f"octet out of range: {text!r}")
        value = (octets[0] << 24) | (octets[1] << 16) | (octets[2] << 8) | octets[3]
        return cls(value)

    @property
    def octets(self) -> tuple[int, int, int, int]:
        """The four octets, most-significant first."""
        value = self.value
        return ((value >> 24) & 0xFF, (value >> 16) & 0xFF, (value >> 8) & 0xFF, value & 0xFF)

    def shifted(self, offset: int) -> "IPv4Address":
        """Return the address ``offset`` positions away (may be negative)."""
        return IPv4Address(self.value + offset)

    def __hash__(self) -> int:
        # The generated dataclass hash builds a field tuple per call;
        # addresses are hashed tens of millions of times per run (set
        # membership in stores, caches, routing tables), so hash the
        # backing int directly.  Consistent with the generated __eq__,
        # which compares the single ``value`` field.
        return hash(self.value)

    def __str__(self) -> str:
        text = self.__dict__.get("_text")
        if text is None:
            text = ".".join(str(octet) for octet in self.octets)
            object.__setattr__(self, "_text", text)
        return text

    def __int__(self) -> int:
        return self.value


@dataclass(frozen=True, order=True)
class IPv4Prefix:
    """A CIDR prefix, e.g. ``17.253.0.0/16``.

    The network address is canonicalised: host bits are required to be
    zero so that two equal prefixes always compare equal.
    """

    network: IPv4Address
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise AddressError(f"prefix length out of range: {self.length}")
        if self.network.value & ~self.mask & _MAX:
            raise AddressError(
                f"host bits set in {self.network}/{self.length}; "
                "use IPv4Prefix.containing() to round down"
            )

    @classmethod
    def parse(cls, text: str) -> "IPv4Prefix":
        """Parse CIDR notation such as ``"17.0.0.0/8"``."""
        if "/" not in text:
            raise AddressError(f"missing prefix length: {text!r}")
        address_part, _, length_part = text.partition("/")
        try:
            length = int(length_part)
        except ValueError as exc:
            raise AddressError(f"bad prefix length: {text!r}") from exc
        return cls(IPv4Address.parse(address_part), length)

    @classmethod
    def containing(cls, address: IPv4Address, length: int) -> "IPv4Prefix":
        """The ``/length`` prefix that contains ``address``."""
        if not 0 <= length <= 32:
            raise AddressError(f"prefix length out of range: {length}")
        mask = (_MAX << (32 - length)) & _MAX
        return cls(IPv4Address(address.value & mask), length)

    @property
    def mask(self) -> int:
        """The network mask as a 32-bit integer."""
        if self.length == 0:
            return 0
        return (_MAX << (32 - self.length)) & _MAX

    @property
    def size(self) -> int:
        """Number of addresses covered by the prefix."""
        return 1 << (32 - self.length)

    @property
    def first(self) -> IPv4Address:
        """The lowest address in the prefix (the network address)."""
        return self.network

    @property
    def last(self) -> IPv4Address:
        """The highest address in the prefix."""
        return IPv4Address(self.network.value | (~self.mask & _MAX))

    def contains(self, address: IPv4Address) -> bool:
        """Whether ``address`` falls inside this prefix."""
        return (address.value & self.mask) == self.network.value

    def subnets(self, new_length: int) -> Iterator["IPv4Prefix"]:
        """Yield the subnets of this prefix at ``new_length``."""
        if new_length < self.length:
            raise AddressError(
                f"cannot subnet /{self.length} into shorter /{new_length}"
            )
        if new_length > 32:
            raise AddressError(f"prefix length out of range: {new_length}")
        step = 1 << (32 - new_length)
        for base in range(self.network.value, self.network.value + self.size, step):
            yield IPv4Prefix(IPv4Address(base), new_length)

    def addresses(self) -> Iterator[IPv4Address]:
        """Yield every address in the prefix, network address first."""
        for value in range(self.network.value, self.network.value + self.size):
            yield IPv4Address(value)

    def host(self, index: int) -> IPv4Address:
        """The ``index``-th address inside the prefix (0 = network address)."""
        if not 0 <= index < self.size:
            raise AddressError(f"host index {index} outside /{self.length}")
        return IPv4Address(self.network.value + index)

    def __str__(self) -> str:
        return f"{self.network}/{self.length}"

    def __contains__(self, address: object) -> bool:
        return isinstance(address, IPv4Address) and self.contains(address)
