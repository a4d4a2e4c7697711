"""Every answer policy, bound once per instant, against a transcribed rule.

A policy answers through ``bind(name, now)``, which works out what
depends on the name and the time alone and returns the answer as a
function of the client.  The oracles below do not bind anything: each
is the policy's documented rule written out per client, with the draw
spelled as ``stable_fraction(name, client, bucket, salt)``.  One bound
answer is asked for several clients, as a campaign tick asks it, and
every answer must equal the oracle's.

Times are drawn either side of the edges a rule has: TTL buckets,
schedule steps, ``secondary_from`` and a health outage window.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apple import policy as apple_policy
from repro.apple.policy import AkamaiHandoverPolicy, OffloadCnamePolicy
from repro.dns.policies import (
    CnamePolicy,
    CountrySplitPolicy,
    GslbAddressPolicy,
    StaticPolicy,
    WeightSchedule,
    WeightedCnamePolicy,
    stable_fraction,
)
from repro.dns.query import QueryContext
from repro.dns.records import ARecord, CnameRecord
from repro.net.geo import Continent, Coordinates, MappingRegion
from repro.net.ipv4 import IPv4Address

NAME = "sel.example"
TTLS = [0, 1, 15, 20, 300]
COUNTRIES = ["in", "cn", "de", "us", "jp", "br"]
NUDGES = [-1.0, -0.001, 0.0, 0.001, 1.0]


def bucket(now, ttl):
    return int(now // ttl) if ttl > 0 else 0


def draw(name, client, now, ttl, salt=""):
    return stable_fraction(name, client, bucket(now, ttl), salt)


def near(*edges):
    """A time just before, at or just after one of ``edges``."""
    return st.tuples(st.sampled_from(edges), st.sampled_from(NUDGES)).map(sum)


def when(ttl, *edges):
    """``now`` either side of a TTL bucket edge or of one of ``edges``."""
    buckets = st.integers(0, 2000).map(lambda k: float(k * max(ttl, 1)))
    edge = near(*edges) if edges else st.nothing()
    return st.one_of(
        st.tuples(buckets, st.sampled_from(NUDGES)).map(sum), edge
    )


clients = st.lists(
    st.tuples(
        st.integers(0, 2**32 - 1), st.sampled_from(list(Continent)),
        st.sampled_from(COUNTRIES),
    ),
    min_size=1,
    max_size=6,
)


def contexts(drawn, now):
    return [
        QueryContext(IPv4Address(client), Coordinates(0.0, 0.0), continent, country, now)
        for client, continent, country in drawn
    ]


def check(policy, now, drawn, oracle):
    """One bind at ``now``, asked for every client, against ``oracle``."""
    answer = policy.bind(NAME, now)
    for context in contexts(drawn, now):
        assert answer(context) == oracle(context), context


def cname(target, ttl):
    return (CnameRecord(NAME, target, ttl),)


# ----------------------------------------------------------------------
# client-independent answers
# ----------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(ttl=st.sampled_from(TTLS), now=st.floats(-1e6, 1e9), drawn=clients)
def test_static_and_cname(ttl, now, drawn):
    records = (ARecord(NAME, IPv4Address.parse("10.0.0.1"), ttl),)
    check(StaticPolicy(records), now, drawn, lambda context: records)
    check(CnamePolicy("t.example", ttl), now, drawn, lambda context: cname("t.example", ttl))


@settings(max_examples=50, deadline=None)
@given(
    ttl=st.sampled_from(TTLS),
    overrides=st.dictionaries(st.sampled_from(COUNTRIES), st.sampled_from(["a.example", "b.example"])),
    now=st.floats(0, 1e9),
    drawn=clients,
)
def test_country_split(ttl, overrides, now, drawn):
    policy = CountrySplitPolicy("world.example", overrides, ttl)
    check(policy, now, drawn,
          lambda context: cname(overrides.get(context.country, "world.example"), ttl))


# ----------------------------------------------------------------------
# weighted selection (steps 2 and 3)
# ----------------------------------------------------------------------

TARGETS = ["a.example", "b.example", "c.example"]
STEP_TIMES = [float("-inf"), 0.0, 150.0, 3600.0, 86400.0]
weights = st.dictionaries(
    st.sampled_from(TARGETS), st.sampled_from([0.0, -1.0, 0.1, 0.25, 1.0, 3.0, 7.5]),
    min_size=1,
).filter(lambda table: any(weight > 0 for weight in table.values()))
schedules = st.lists(st.tuples(st.sampled_from(STEP_TIMES), weights), min_size=1, max_size=3)


def oracle_weighted(steps, ttl, salt, context):
    """The last step at or before ``now`` (the first before any); the
    draw times the total weight falls in one target's share, in name
    order."""
    ordered = sorted(steps, key=lambda step: step[0])
    active = ordered[0][1]
    for effective_from, table in ordered:
        if effective_from <= context.now:
            active = table
        else:
            break
    positive = {target: float(weight) for target, weight in active.items() if weight > 0}
    threshold = draw(NAME, context.client, context.now, ttl, salt) * sum(positive.values())
    cumulative = 0.0
    for target, weight in sorted(positive.items()):
        cumulative += weight
        if threshold < cumulative:
            return cname(target, ttl)
    return cname(max(positive), ttl)


@settings(max_examples=200, deadline=None)
@given(
    steps=schedules,
    ttl=st.sampled_from(TTLS),
    salt=st.sampled_from(["", "s", "a|b"]),
    data=st.data(),
    drawn=clients,
)
def test_weighted(steps, ttl, salt, data, drawn):
    now = data.draw(when(ttl, *[t for t, _ in steps if t > float("-inf")]))
    policy = WeightedCnamePolicy(WeightSchedule(steps), ttl, salt)
    check(policy, now, drawn, lambda context: oracle_weighted(steps, ttl, salt, context))


# ----------------------------------------------------------------------
# GSLB rotation (step 4)
# ----------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    sizes=st.fixed_dictionaries({region: st.integers(0, 7) for region in MappingRegion}),
    answer_count=st.integers(1, 5),
    ttl=st.sampled_from(TTLS),
    salt=st.sampled_from(["", "g"]),
    data=st.data(),
    drawn=clients,
)
def test_gslb(sizes, answer_count, ttl, salt, data, drawn):
    pools = {
        region: [IPv4Address.parse(f"17.{index}.0.{host + 1}").value for host in range(size)]
        for index, (region, size) in enumerate(sizes.items())
    }
    now = data.draw(when(ttl))

    def oracle(context):
        candidates = pools[context.region]
        if not candidates:
            return ()
        offset = int(draw(NAME, context.client, now, ttl, salt) * len(candidates))
        return tuple(
            ARecord(NAME, IPv4Address(candidates[(offset + i) % len(candidates)]), ttl)
            for i in range(min(answer_count, len(candidates)))
        )

    policy = GslbAddressPolicy(
        pool=lambda context: pools[context.region], ttl=ttl,
        answer_count=answer_count, salt=salt,
    )
    check(policy, now, drawn, oracle)


# ----------------------------------------------------------------------
# Apple's offload decision (step 2) and Akamai's handover
# ----------------------------------------------------------------------


class Shares:
    """A controller stand-in: a fixed Apple share per region."""

    def __init__(self, shares):
        self.shares = shares

    def apple_share(self, region):
        return self.shares[region]


class Outage:
    """A health stand-in following ``SelectionHealth.effective_share``'s
    rule, with Apple up or down and the third-party tier of one region
    dark inside ``[start, end)``."""

    def __init__(self, apple_ok, region, start, end):
        self.apple_ok, self.region, self.start, self.end = apple_ok, region, start, end

    def third_party_ok(self, region, now):
        return region is not self.region or not self.start <= now < self.end

    def effective_share(self, share, region, now):
        third_ok = self.third_party_ok(region, now)
        if not self.apple_ok and third_ok:
            return 0.0
        if self.apple_ok and not third_ok:
            return 1.0
        return share


share = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
outages = st.one_of(
    st.none(),
    st.builds(
        Outage, st.booleans(), st.sampled_from(list(MappingRegion)),
        st.sampled_from([0.0, 600.0]), st.sampled_from([600.0, 7200.0]),
    ),
)


@settings(max_examples=200, deadline=None)
@given(
    shares=st.fixed_dictionaries({region: share for region in MappingRegion}),
    health=outages,
    gslb_targets=st.sampled_from([("a.gslb.example", "b.gslb.example"), ("only.gslb.example",)]),
    data=st.data(),
    drawn=clients,
)
def test_offload(shares, health, gslb_targets, data, drawn):
    ttl = 15
    edges = () if health is None else (health.start, health.end)
    now = data.draw(when(ttl, *edges))

    def oracle(context):
        region = context.region
        kept = shares[region]
        if health is not None:
            kept = health.effective_share(kept, region, now)
        if draw(NAME, context.client, now, ttl) < kept:
            pick = draw("gslb", context.client, now, ttl)
            return cname(gslb_targets[int(pick * len(gslb_targets))], ttl)
        return cname(f"ios8-{region.value}-lb.apple.com.akadns.net", ttl)

    policy = OffloadCnamePolicy(Shares(shares), gslb_targets, ttl, health)
    check(policy, now, drawn, oracle)


@settings(max_examples=150, deadline=None)
@given(
    secondary_from=st.one_of(st.none(), st.sampled_from([0.0, 3000.0, 86400.5])),
    ttl=st.sampled_from(TTLS),
    data=st.data(),
    drawn=clients,
)
def test_akamai_handover(secondary_from, ttl, data, drawn):
    edges = () if secondary_from is None else (secondary_from,)
    now = data.draw(when(ttl, *edges))

    def oracle(context):
        if (
            secondary_from is not None and now >= secondary_from
            and context.region is MappingRegion.EU
            and draw(NAME, context.client, now, ttl) < apple_policy.AKAMAI_SECONDARY_SHARE
        ):
            return cname("a1015.example", ttl)
        return cname("a1271.example", ttl)

    policy = AkamaiHandoverPolicy("a1271.example", "a1015.example", secondary_from, ttl)
    check(policy, now, drawn, oracle)

