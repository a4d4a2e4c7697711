"""Regression: a prefix holds one route, and is never silently replaced.

The original table silently replaced a prefix's route on every
install.  The table is built whole: an identical repeat is a no-op,
and a second, different route for a prefix is refused
(``tests/isp/test_bgp_property.py``).
"""

from repro.isp.bgp import BgpRib, BgpRoute
from repro.net.asys import ASN
from repro.net.ipv4 import IPv4Address, IPv4Prefix

VIP = IPv4Prefix.parse("17.172.224.0/22")
ADDR = IPv4Address.parse("17.172.225.10")


def route(link: str, *path: int) -> BgpRoute:
    return BgpRoute(VIP, tuple(ASN(n) for n in path), (link,))


class TestCandidateSets:
    """What is left of the candidate sets: one route per prefix."""

    def test_identical_reannouncement_is_noop(self):
        rib = BgpRib([route("site-a", 65101, 714), route("site-a", 65101, 714)])
        assert len(rib) == 1
        assert rib.lookup(ADDR) == route("site-a", 65101, 714)
