"""Regression: BgpRib.install keeps a candidate set per prefix.

The original table silently replaced a prefix's route on every
install.  These tests pin the contract that replaced it: identical
re-announcements dedupe, distinct announcements accumulate, and
selection is shortest-AS-path with a stable content tie-break.
"""

import pytest

from repro.isp.bgp import BgpRib, BgpRoute, route_preference
from repro.net.asys import ASN
from repro.net.ipv4 import IPv4Address, IPv4Prefix

VIP = IPv4Prefix.parse("17.172.224.0/22")
COVER = IPv4Prefix.parse("17.0.0.0/8")
ADDR = IPv4Address.parse("17.172.225.10")


def route(link: str, *path: int, prefix: IPv4Prefix = VIP) -> BgpRoute:
    return BgpRoute(prefix, tuple(ASN(n) for n in path), (link,))


class TestCandidateSets:
    def test_distinct_routes_accumulate(self):
        rib = BgpRib()
        rib.install(route("site-a", 65101, 714))
        rib.install(route("site-b", 65102, 714))
        assert len(rib.lookup_all(ADDR)) == 2
        # One prefix, two candidates.
        assert rib.route_count == 1
        assert len(list(rib.routes())) == 2

    def test_identical_reannouncement_is_noop(self):
        rib = BgpRib()
        rib.install(route("site-a", 65101, 714))
        rib.install(route("site-a", 65101, 714))
        assert len(rib.lookup_all(ADDR)) == 1

    def test_candidates_sorted_by_preference(self):
        rib = BgpRib()
        long_path = route("site-far", 65103, 65104, 714)
        short_path = route("site-near", 65101, 714)
        rib.install(long_path)
        rib.install(short_path)
        best, second = rib.lookup_all(ADDR)
        assert best == short_path
        assert second == long_path
        assert route_preference(best) < route_preference(second)

    def test_lookup_returns_best_candidate(self):
        rib = BgpRib()
        far = route("site-far", 65103, 65104, 714)
        near = route("site-near", 65101, 714)
        rib.install(route("transit", 65200, 714, prefix=COVER))
        rib.install(far)
        rib.install(near)
        chosen = rib.lookup(ADDR)
        assert chosen is not None
        assert chosen.link_ids == ("site-near",)
        # Every candidate of the longest matching prefix, best first.
        assert rib.lookup_all(ADDR) == (near, far)

    def test_equal_length_tiebreak_is_content_stable(self):
        a = route("site-a", 65101, 714)
        b = route("site-b", 65102, 714)
        forward, backward = BgpRib(), BgpRib()
        forward.install(a), forward.install(b)
        backward.install(b), backward.install(a)
        # Selection ignores insertion order entirely.
        assert forward.lookup_all(ADDR) == backward.lookup_all(ADDR)
        assert forward.lookup(ADDR) == backward.lookup(ADDR)


def test_the_epoch_moves_exactly_when_the_table_does():
    """Whoever derives state from lookups (the engine's route plans)
    rebuilds on an epoch change — so no change may go uncounted, and a
    no-op should not cost a rebuild."""
    rib = BgpRib()
    a, b = route("site-a", 65101, 714), route("site-b", 65102, 714)
    assert rib.epoch == 0
    rib.install(a)
    assert rib.epoch == 1
    rib.install(a)  # identical re-announcement
    rib.lookup(ADDR)
    assert rib.epoch == 1
    rib.install(b)
    assert rib.epoch == 2


def test_preference_key_is_pure():
    a = route("site-a", 65101, 714)
    same = route("site-a", 65101, 714)
    assert route_preference(a) == route_preference(same)
    with pytest.raises(ValueError):
        BgpRoute(VIP, (), ("l",))
