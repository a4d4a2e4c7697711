"""Tests for repro.dns.policies."""

from array import array
from unittest.mock import patch

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apple.policy import AkamaiHandoverPolicy, MetaCdnController, OffloadCnamePolicy
from repro.dns import policies
from repro.dns.policies import (
    CnamePolicy,
    CountrySplitPolicy,
    GslbAddressPolicy,
    StaticPolicy,
    WeightSchedule,
    WeightedCnamePolicy,
    stable_fraction,
    sticky_draw,
)
from repro.dns.query import QueryContext
from repro.dns.records import ARecord, RecordType
from repro.net.geo import Continent, Coordinates
from repro.net.ipv4 import IPv4Address


def answer(policy, name, context):
    """The records ``policy`` answers ``name`` with for ``context``."""
    return policy.bind(name, context.now)(context)


def select(policy, name, context):
    """The CNAME target ``policy`` hands ``context``'s client for ``name``."""
    (record,) = answer(policy, name, context)
    return record.target


def make_context(client="198.51.100.7", country="de", continent=Continent.EUROPE, now=0.0):
    return QueryContext(
        client=IPv4Address.parse(client),
        coordinates=Coordinates(52.52, 13.40),
        continent=continent,
        country=country,
        now=now,
    )


class TestStableFraction:
    def test_in_unit_interval(self):
        assert 0.0 <= stable_fraction("x", 1, 2) < 1.0

    def test_deterministic(self):
        assert stable_fraction("a", 1) == stable_fraction("a", 1)

    def test_sensitive_to_inputs(self):
        assert stable_fraction("a", 1) != stable_fraction("a", 2)

    @given(st.text(max_size=20), st.integers())
    def test_always_in_range_property(self, text, number):
        assert 0.0 <= stable_fraction(text, number) < 1.0


class TestStickyFraction:
    """The selection policies' draw hashes the bytes ``stable_fraction`` would."""

    @given(
        name=st.text(max_size=20) | st.sampled_from(["a|b.example", "|"]),
        client=st.integers(0, 2**32 - 1),
        now=st.floats(0.0, 1e9, allow_nan=False),
        ttl=st.sampled_from([0, 15, 20, 60, 120, 300, 21600]),
        # A separator inside a part shifts nothing: both spell the same bytes.
        salt=st.text(max_size=12) | st.sampled_from(["a|b", "|", "7|0|", "|17.0.0.1|"]),
    )
    def test_is_the_bucketed_stable_fraction(self, name, client, now, ttl, salt):
        context = make_context(client=str(IPv4Address(client)), now=now)
        bucket = int(now // ttl) if ttl > 0 else 0
        assert sticky_draw(name, now, ttl, salt)(context) == stable_fraction(
            name, context.client, bucket, salt
        )

    def test_holds_for_one_ttl_interval(self):
        draws = [
            sticky_draw("sel.example", now, 15, "s")(make_context(now=now))
            for now in (30.0, 37.5, 44.9, 45.0)
        ]
        assert draws[0] == draws[1] == draws[2] != draws[3]


class TestSimplePolicies:
    def test_static_policy(self):
        record = ARecord("x.example", IPv4Address.parse("1.1.1.1"), 60)
        policy = StaticPolicy((record,))
        assert answer(policy, "x.example", make_context()) == (record,)

    def test_cname_policy(self):
        policy = CnamePolicy("appldnld.apple.com.akadns.net", ttl=21600)
        (record,) = answer(policy, "appldnld.apple.com", make_context())
        assert record.rtype is RecordType.CNAME
        assert record.target == "appldnld.apple.com.akadns.net"
        assert record.ttl == 21600


class TestCountrySplitPolicy:
    # Step 1 of Figure 2: India and China get dedicated load balancers.
    policy = CountrySplitPolicy(
        default="appldnld.apple.com.akadns.net",
        overrides={
            "in": "india-lb.itunes-apple.com.akadns.net",
            "cn": "china-lb.itunes-apple.com.akadns.net",
        },
        ttl=120,
    )

    def test_world_goes_to_default(self):
        (record,) = answer(self.policy, "e", make_context(country="de"))
        assert record.target == "appldnld.apple.com.akadns.net"

    def test_india_split(self):
        (record,) = answer(self.policy, "e", make_context(country="in"))
        assert record.target == "india-lb.itunes-apple.com.akadns.net"

    def test_china_split(self):
        (record,) = answer(self.policy, "e", make_context(country="cn"))
        assert record.target == "china-lb.itunes-apple.com.akadns.net"


class TestWeightSchedule:
    def test_constant(self):
        schedule = WeightSchedule.constant({"a.example": 1.0})
        assert schedule.weights_at(0) == {"a.example": 1.0}
        assert schedule.weights_at(1e9) == {"a.example": 1.0}

    def test_step_change(self):
        schedule = WeightSchedule(
            [
                (0.0, {"apple.example": 0.8, "akamai.example": 0.2}),
                (100.0, {"apple.example": 0.5, "akamai.example": 0.5}),
            ]
        )
        assert schedule.weights_at(50)["apple.example"] == 0.8
        assert schedule.weights_at(100)["apple.example"] == 0.5
        assert schedule.weights_at(500)["apple.example"] == 0.5

    def test_before_first_step_uses_first(self):
        schedule = WeightSchedule([(100.0, {"a.example": 1.0})])
        assert schedule.weights_at(0) == {"a.example": 1.0}

    def test_zero_weight_targets_dropped(self):
        schedule = WeightSchedule.constant({"a.example": 1.0, "b.example": 0.0})
        assert schedule.weights_at(0) == {"a.example": 1.0}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            WeightSchedule([])
        with pytest.raises(ValueError):
            WeightSchedule([(0.0, {"a.example": 0.0})])

    @pytest.mark.parametrize(
        "steps",
        [
            [(float("-inf"), {"a.example": float("inf"), "b.example": 1.0})],
            [(0.0, {"a.example": 1.0, "b.example": float("-inf")})],
            [(0.0, {"a.example": 1.0, "b.example": float("nan")})],
            [(float("nan"), {"a.example": 1.0}), (0.0, {"b.example": 1.0})],
            [(0.0, {"b.example": 1.0}), (float("nan"), {"a.example": 1.0})],
        ],
        ids=["inf-weight", "minus-inf-weight", "nan-weight", "nan-time-first", "nan-time-last"],
    )
    def test_non_finite_input_refused(self, steps):
        # An infinite weight used to send every client to the finite
        # target, and a NaN step time made input order pick the step.
        with pytest.raises(ValueError):
            WeightSchedule(steps)

    def test_steps_sorted_by_time(self):
        schedule = WeightSchedule(
            [(100.0, {"late.example": 1.0}), (0.0, {"early.example": 1.0})]
        )
        assert schedule.weights_at(50) == {"early.example": 1.0}
        assert schedule.weights_at(100) == {"late.example": 1.0}


class TestWeightedCnamePolicy:
    def test_deterministic_for_same_client_and_bucket(self):
        policy = WeightedCnamePolicy(
            WeightSchedule.constant({"a.example": 0.5, "b.example": 0.5}), ttl=15
        )
        context = make_context(now=7.0)
        assert select(policy, "e", context) == select(policy, "e", context)

    def test_sticky_within_ttl_bucket(self):
        policy = WeightedCnamePolicy(
            WeightSchedule.constant({"a.example": 0.5, "b.example": 0.5}), ttl=15
        )
        first = select(policy, "e", make_context(now=0.0))
        second = select(policy, "e", make_context(now=14.9))
        assert first == second

    def test_population_respects_weights(self):
        policy = WeightedCnamePolicy(
            WeightSchedule.constant({"apple.example": 0.75, "cdn.example": 0.25}),
            ttl=15,
        )
        picks = []
        for host in range(2000):
            context = make_context(client=f"10.0.{host // 256}.{host % 256}")
            picks.append(select(policy, "e", context))
        apple_share = picks.count("apple.example") / len(picks)
        assert apple_share == pytest.approx(0.75, abs=0.05)

    def test_single_target_always_chosen(self):
        policy = WeightedCnamePolicy(
            WeightSchedule.constant({"only.example": 3.0}), ttl=15
        )
        assert select(policy, "e", make_context()) == "only.example"

    def test_schedule_switch_changes_selection_universe(self):
        schedule = WeightSchedule(
            [(0.0, {"before.example": 1.0}), (100.0, {"after.example": 1.0})]
        )
        policy = WeightedCnamePolicy(schedule, ttl=15)
        assert select(policy, "e", make_context(now=0)) == "before.example"
        assert select(policy, "e", make_context(now=200)) == "after.example"

    def test_answer_produces_cname_with_policy_ttl(self):
        policy = WeightedCnamePolicy(
            WeightSchedule.constant({"a.example": 1.0}), ttl=15
        )
        (record,) = answer(policy, "sel.example", make_context())
        assert record.rtype is RecordType.CNAME
        assert record.ttl == 15

    def test_zero_ttl_uses_single_bucket(self):
        policy = WeightedCnamePolicy(
            WeightSchedule.constant({"a.example": 1.0, "b.example": 1.0}), ttl=0
        )
        assert select(policy, "e", make_context(now=1)) == select(
            policy, "e", make_context(now=99999)
        )


class TestGslbAddressPolicy:
    def _pool(self, size):
        return [IPv4Address.parse(f"17.253.0.{i}").value for i in range(size)]

    def test_returns_answer_count_records(self):
        pool = self._pool(12)
        policy = GslbAddressPolicy(pool=lambda ctx: pool, ttl=20, answer_count=4)
        records = answer(policy, "gslb.example", make_context())
        assert len(records) == 4
        assert all(record.rtype is RecordType.A for record in records)
        assert len({record.address for record in records}) == 4

    def test_small_pool_returns_all(self):
        pool = self._pool(2)
        policy = GslbAddressPolicy(pool=lambda ctx: pool, ttl=20, answer_count=4)
        assert len(answer(policy, "g.example", make_context())) == 2

    def test_empty_pool_returns_nothing(self):
        policy = GslbAddressPolicy(pool=lambda ctx: [], ttl=20)
        assert answer(policy, "g.example", make_context()) == ()

    def test_different_clients_cover_whole_pool(self):
        pool = self._pool(64)
        policy = GslbAddressPolicy(pool=lambda ctx: pool, ttl=20, answer_count=4)
        seen = set()
        for host in range(300):
            context = make_context(client=f"10.1.{host // 256}.{host % 256}")
            seen.update(r.address for r in answer(policy, "g.example", context))
        # Nearly the whole pool should be exposed across many clients,
        # which is what drives the unique-IP counts in Figures 4 and 5.
        assert len(seen) >= 60

    def test_same_client_same_bucket_is_stable(self):
        pool = self._pool(32)
        policy = GslbAddressPolicy(pool=lambda ctx: pool, ttl=20)
        a = answer(policy, "g.example", make_context(now=5))
        b = answer(policy, "g.example", make_context(now=15))
        assert a == b


def rotation_reference(pool, offset, count, name, ttl):
    """The answer as the per-index modulo loop builds it."""
    size = len(pool)
    return tuple(
        ARecord(name, IPv4Address(pool[(offset + index) % size]), ttl)
        for index in range(min(count, size))
    )


class TestGslbRotationOracle:
    """The sliced answer equals the modulo loop at every offset, wrap included,
    and each address value has one record object per name."""

    @given(
        values=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=12, unique=True),
        count=st.integers(1, 16),
        data=st.data(),
        kind=st.sampled_from([list, tuple, lambda values: array("I", values)]),
    )
    def test_slices_equal_the_modulo_loop(self, values, count, data, kind):
        pool = kind(values)
        size = len(pool)
        # Offsets at the wrap (the last few) as well as anywhere.
        offsets = data.draw(st.lists(
            st.integers(0, size - 1) | st.sampled_from([size - 1, max(0, size - count)]),
            min_size=1, max_size=6,
        ))
        policy = GslbAddressPolicy(pool=lambda ctx: pool, ttl=20, answer_count=count)
        interned = {}
        for name in ("a.gslb.example", "b.gslb.example"):
            for offset in offsets:
                fraction = (offset + 0.5) / size  # int(fraction * size) == offset
                with patch.object(policies, "sticky_draw", lambda *_: lambda ctx: fraction):
                    records = answer(policy, name, make_context(now=offset))
                assert records == rotation_reference(pool, offset, count, name, 20)
                assert type(records) is tuple
                for record in records:
                    assert interned.setdefault((name, record.address.value), record) is record
        handed_out = {
            pool[(offset + index) % size]
            for offset in offsets for index in range(min(count, size))
        }
        assert len(interned) == 2 * len(handed_out)

    @given(
        values=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=12, unique=True),
        count=st.integers(1, 16),
        clients=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=8),
    )
    def test_the_real_draw_picks_the_offset_the_loop_would(self, values, count, clients):
        policy = GslbAddressPolicy(pool=lambda ctx: values, ttl=20, answer_count=count, salt="s")
        for client in clients:
            context = make_context(client=str(IPv4Address(client)), now=40.0)
            offset = int(sticky_draw("g.example", 40.0, 20, "s")(context) * len(values))
            assert answer(policy, "g.example", context) == rotation_reference(
                values, offset, count, "g.example", 20
            )


@pytest.mark.parametrize(
    "build",
    [
        lambda: StaticPolicy((ARecord("x.example", IPv4Address.parse("1.1.1.1"), -1),)),
        lambda: CnamePolicy("x.example", ttl=-5),
        lambda: CountrySplitPolicy("x.example", {"in": "i.example"}, ttl=-1),
        lambda: WeightedCnamePolicy(WeightSchedule.constant({"a.example": 1.0}), ttl=-15),
        lambda: GslbAddressPolicy(pool=lambda ctx: [1], ttl=-20),
        lambda: GslbAddressPolicy(pool=lambda ctx: [1], ttl=float("nan")),
        lambda: GslbAddressPolicy(pool=lambda ctx: [1], ttl=20, answer_count=0),
        lambda: OffloadCnamePolicy(MetaCdnController({}), ttl=-15),
        lambda: AkamaiHandoverPolicy(ttl=-300),
    ],
    ids=[
        "static", "cname", "country-split", "weighted", "gslb-ttl", "gslb-nan-ttl",
        "gslb-answer-count", "offload", "akamai-handover",
    ],
)
def test_a_configuration_no_answer_could_carry_is_refused_at_construction(build):
    # These used to construct, then raise "negative TTL" (or answer
    # NODATA, for answer_count=0) on every query.
    with pytest.raises(ValueError):
        build()
