"""Anycast steering: shared-VIP announcements, catchments, flap faults.

The paper's Meta-CDN steers clients with DNS (the 15 s selection
CNAME).  Real brokers also run anycast, where one VIP is announced from
many sites at once and BGP best-path selection — not DNS — decides
which site a client reaches.  This package models that plane
deterministically: per-client catchments fall out of AS-path selection
(shortest path, then a stable BLAKE2b tie-break) over a
:class:`~repro.isp.bgp.BgpRib` holding every site's candidate
announcement, and mid-event route flaps (withdraw / prepend) shift
catchments instantly and invisibly to DNS health failover.
"""

from .catchment import CatchmentMap, build_catchment_map
from .plane import (
    STEERING_MODES,
    AnycastPlane,
    AnycastSite,
    AnycastTick,
    ClientGroup,
    check_steering,
)
from .analysis import CatchmentAnalysis

__all__ = [
    "AnycastPlane",
    "AnycastSite",
    "AnycastTick",
    "CatchmentAnalysis",
    "CatchmentMap",
    "ClientGroup",
    "STEERING_MODES",
    "build_catchment_map",
    "check_steering",
]
