"""Network primitives: IPv4, prefix tries, autonomous systems, geography.

This subpackage is the foundation every other substrate builds on.  It is
dependency-free and deterministic.
"""

from .asys import (
    AS_AKAMAI,
    AS_APPLE,
    AS_LIMELIGHT,
    ASN,
    ASRegistry,
    AutonomousSystem,
)
from .geo import (
    Continent,
    Coordinates,
    MappingRegion,
    great_circle_km,
    nearest,
)
from .ipv4 import AddressError, IPv4Address, IPv4Prefix
from .locode import Location, LocodeDatabase
from .trie import PrefixTrie

__all__ = [
    "AddressError",
    "IPv4Address",
    "IPv4Prefix",
    "PrefixTrie",
    "ASN",
    "AutonomousSystem",
    "ASRegistry",
    "AS_APPLE",
    "AS_AKAMAI",
    "AS_LIMELIGHT",
    "Coordinates",
    "Continent",
    "MappingRegion",
    "great_circle_km",
    "nearest",
    "Location",
    "LocodeDatabase",
]
