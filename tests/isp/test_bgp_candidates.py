"""Regression: BgpRib.install keeps a candidate set per prefix.

The original table silently replaced a prefix's route on every
install, which made anycast impossible to model — a shared VIP prefix
is announced from *many* sites at once, and best-path selection has
to run over the full candidate set.  These tests pin the new
contract: identical re-announcements dedupe, distinct announcements
accumulate, withdrawal removes exactly one candidate, and selection
is shortest-AS-path with a stable content tie-break.
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
        assert len(rib.candidates(VIP)) == 2
        # One prefix, two candidates.
        assert rib.route_count == 1
        assert len(list(rib.routes())) == 2

    def test_identical_reannouncement_is_noop(self):
        rib = BgpRib()
        rib.install(route("site-a", 65101, 714))
        rib.install(route("site-a", 65101, 714))
        assert len(rib.candidates(VIP)) == 1

    def test_candidates_sorted_by_preference(self):
        rib = BgpRib()
        long_path = route("site-far", 65103, 65104, 714)
        short_path = route("site-near", 65101, 714)
        rib.install(long_path)
        rib.install(short_path)
        best, second = rib.candidates(VIP)
        assert best == short_path
        assert second == long_path
        assert route_preference(best) < route_preference(second)

    def test_lookup_returns_best_candidate(self):
        rib = BgpRib()
        rib.install(route("site-far", 65103, 65104, 714))
        rib.install(route("site-near", 65101, 714))
        chosen = rib.lookup(ADDR)
        assert chosen is not None
        assert chosen.link_ids == ("site-near",)
        assert rib.lookup_all(ADDR) == rib.candidates(VIP)

    def test_equal_length_tiebreak_is_content_stable(self):
        a = route("site-a", 65101, 714)
        b = route("site-b", 65102, 714)
        forward, backward = BgpRib(), BgpRib()
        forward.install(a), forward.install(b)
        backward.install(b), backward.install(a)
        # Selection ignores insertion order entirely.
        assert forward.candidates(VIP) == backward.candidates(VIP)
        assert forward.lookup(ADDR) == backward.lookup(ADDR)


class TestWithdrawal:
    def test_withdraw_removes_one_candidate(self):
        rib = BgpRib()
        a = route("site-a", 65101, 714)
        b = route("site-b", 65102, 714)
        rib.install(a)
        rib.install(b)
        assert rib.withdraw(a) is True
        assert rib.candidates(VIP) == (b,)
        assert rib.withdraw(a) is False  # already gone

    def test_withdraw_unknown_route_is_false(self):
        rib = BgpRib()
        assert rib.withdraw(route("site-a", 65101, 714)) is False

    def test_fully_withdrawn_prefix_is_transparent_to_lpm(self):
        rib = BgpRib()
        covering = route("transit", 65200, 714, prefix=COVER)
        specific = route("site-a", 65101, 714)
        rib.install(covering)
        rib.install(specific)
        assert rib.lookup(ADDR) == specific
        rib.withdraw(specific)
        # The /22 has no live candidates: the /8 answers instead.
        assert rib.lookup(ADDR) == covering
        assert rib.route_count == 1

    def test_reannounce_after_full_withdrawal(self):
        rib = BgpRib()
        a = route("site-a", 65101, 714)
        rib.install(a)
        rib.withdraw(a)
        assert rib.lookup(ADDR) is None
        rib.install(a)
        assert rib.lookup(ADDR) == a


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
    assert rib.withdraw(b) is False
    rib.lookup(ADDR)
    assert rib.epoch == 1
    rib.install(b)
    assert rib.withdraw(a) is True
    assert rib.epoch == 3


def test_preference_key_is_pure():
    a = route("site-a", 65101, 714)
    same = route("site-a", 65101, 714)
    assert route_preference(a) == route_preference(same)
    with pytest.raises(ValueError):
        BgpRoute(VIP, (), ("l",))
