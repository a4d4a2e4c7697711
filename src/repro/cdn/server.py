"""Cache servers and their roles.

Apple's naming scheme (Table 1) distinguishes server functions: ``vip``
(the load-balancer address handed out by DNS), ``edge`` (caches, with
``bx``/``lx``/``sx`` secondary functions), ``gslb``, ``dns``, ``ntp``
and ``tool``.  :class:`ServerRole` captures the function and
:class:`CacheServer` one concrete machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from ..net.asys import ASN
from ..net.ipv4 import IPv4Address
from .cache import ContentCache

__all__ = ["ServerFunction", "SecondaryFunction", "ServerRole", "CacheServer"]


class ServerFunction(str, Enum):
    """Primary function identifier (Table 1, identifier ``c``)."""

    VIP = "vip"
    EDGE = "edge"
    GSLB = "gslb"
    DNS = "dns"
    NTP = "ntp"
    TOOL = "tool"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class SecondaryFunction(str, Enum):
    """Secondary function identifier (Table 1, identifier ``d``)."""

    BX = "bx"
    LX = "lx"
    SX = "sx"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class ServerRole:
    """A (function, secondary function) pair, e.g. ``edge-bx``."""

    function: ServerFunction
    secondary: Optional[SecondaryFunction] = None

    def __str__(self) -> str:
        if self.secondary is None:
            return self.function.value
        return f"{self.function.value}-{self.secondary.value}"


# The three roles the paper's Figure 2 edge-site inset uses.
VIP_BX = ServerRole(ServerFunction.VIP, SecondaryFunction.BX)
EDGE_BX = ServerRole(ServerFunction.EDGE, SecondaryFunction.BX)
EDGE_LX = ServerRole(ServerFunction.EDGE, SecondaryFunction.LX)


@dataclass
class CacheServer:
    """One delivery machine: hostname, address, role, capacity, cache.

    ``capacity_gbps`` is the sustained delivery capacity used by the
    load model; ``cache`` is ``None`` for pure load balancers (vip) and
    non-delivery roles.  ``asn`` records the AS the address lives in —
    third-party CDNs place caches inside other operators' networks,
    which is exactly what "Akamai other AS" / "Limelight other AS"
    denote in Figures 4 and 5.
    """

    hostname: str
    address: IPv4Address
    role: ServerRole
    asn: ASN
    capacity_gbps: float = 10.0
    cache: Optional[ContentCache] = None
    served_bytes: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self.hostname = self.hostname.lower()
        if self.capacity_gbps <= 0:
            raise ValueError(f"capacity must be positive: {self.capacity_gbps}")

    def account(self, size: int) -> None:
        """Add ``size`` bytes to this server's delivery counter."""
        if size < 0:
            raise ValueError(f"negative size: {size}")
        self.served_bytes += size

    def __str__(self) -> str:
        return f"{self.hostname} [{self.address}] ({self.role})"
