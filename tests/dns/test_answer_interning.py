"""Interned answers, and the chase's memo of what it read from them.

Policies hand out one tuple per distinct answer, so the chase
(``resolve_bulk``) reads each tuple once and keeps that read — the step,
the addresses, the redirect, the TTL — in a bounded, process-wide memo
per hop name, keyed by the tuple's id.  Each half can go wrong on its
own, and the tests below hold both:

* an interned GSLB answer must be the slice the pool holds *now*: a
  deployment moves its pool in place, so a memo keyed by the pool's
  identity would hand out a stale answer;
* a remembered read must belong to the tuple being read, under the hop
  name and operator asking: an id can be reused once a tuple is gone,
  and one tuple can be served under two names or by two operators.

A third test holds the memo to its purpose over a real campaign window:
a read that is dropped while its tuple is still handed out is read
again, so a memo that thrashes shows as reads far above the distinct
tuples the chase was handed.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdn.deployment import CdnDeployment, ExposureController
from repro.dns import resolver as resolver_module
from repro.dns.policies import GslbAddressPolicy, StaticPolicy, stable_fraction
from repro.dns.query import QueryContext
from repro.dns.records import ARecord
from repro.dns.resolver import RecursiveResolver, resolve_bulk
from repro.dns.wire import _MEMO_BOUND
from repro.dns.zone import AuthoritativeServer, Zone
from repro.simulation import ScenarioConfig, Sep2017Scenario, SimulationEngine
from repro.workload import TIMELINE
from repro.net.asys import AS_AKAMAI
from repro.net.geo import Continent, Coordinates
from repro.net.ipv4 import IPv4Address
from tests.cdn.test_deployment import DB, make_server

NAME = "a1271.gi3.akamai.net"
# Two vantages in one region, ranking the same servers differently.
BERLIN = Coordinates(52.52, 13.40)
LONDON = Coordinates(51.51, -0.13)


def context(client, coordinates, now):
    return QueryContext(
        IPv4Address(client), coordinates, Continent.EUROPE, "de", now
    )


def pinned_deployment(wanted, frankfurt, london, pool_limit):
    """A deployment whose EU active count is ``wanted["count"]``."""

    class Pinned(ExposureController):
        def active_count(self, pool_size):
            return min(wanted["count"], pool_size)

    deployment = CdnDeployment(
        "Akamai", AS_AKAMAI,
        exposure_factory=lambda: Pinned(per_server_gbps=10), pool_limit=pool_limit,
    )
    for index in range(frankfurt):
        deployment.add_server(make_server(index), DB.get("defra"))
    for index in range(frankfurt, frankfurt + london):
        deployment.add_server(make_server(index), DB.get("uklon"))
    return deployment


def fresh_slice(pool, client, now, ttl, count):
    """The rotation a GSLB answer takes, from the pool as it is now."""
    if not pool:
        return ()
    bucket = int(now // ttl) if ttl > 0 else 0
    offset = int(stable_fraction(NAME, IPv4Address(client), bucket, "") * len(pool))
    return tuple(pool[(offset + i) % len(pool)] for i in range(min(count, len(pool))))


ops = st.lists(
    st.tuples(
        st.integers(0, 12),  # the active count, moving the pool in place
        st.integers(0, 3),  # the TTL bucket asked in
        st.lists(
            st.tuples(
                st.sampled_from([0xC6336407, 0xC6336408, 0xCB00710D]),
                st.sampled_from([BERLIN, LONDON]),
            ),
            min_size=1, max_size=4,
        ),
    ),
    min_size=1, max_size=12,
)


@settings(max_examples=150, deadline=None)
@given(
    frankfurt=st.integers(0, 6),
    london=st.integers(1, 6),
    pool_limit=st.sampled_from([0, 3]),
    answer_count=st.integers(1, 5),
    ttl=st.sampled_from([0, 20]),
    as_list=st.booleans(),
    ops=ops,
)
def test_an_interned_gslb_answer_is_the_pool_as_it_is_now(
    frankfurt, london, pool_limit, answer_count, ttl, as_list, ops
):
    wanted = {"count": 0}
    deployment = pinned_deployment(wanted, frankfurt, london, pool_limit)
    # The deployment's own array, moved in place, or a list copy of it
    # (a stand-in pool).
    pool = deployment.pool_for
    if as_list:
        pool = lambda asked: list(deployment.pool_for(asked))  # noqa: E731
    policy = GslbAddressPolicy(pool=pool, ttl=ttl, answer_count=answer_count)
    interned = {}
    for count, bucket, clients in ops:
        wanted["count"] = count
        now = float(bucket * max(ttl, 1))
        answer = policy.bind(NAME, now)
        for client, coordinates in clients:
            asked = context(client, coordinates, now)
            got = answer(asked)
            values = fresh_slice(
                list(deployment.pool_for(asked)), client, now, ttl, answer_count
            )
            assert got == tuple(ARecord(NAME, IPv4Address(v), ttl) for v in values)
            # One tuple per distinct slice, across clients and binds.
            assert interned.setdefault(values, got) is got


class FreshTuples:
    """A policy stand-in handing out a new one-record tuple per call,
    each with the next address: no two answers are equal."""

    def __init__(self):
        self.handed = []
        self.calls = 0

    def bind(self, name, now):
        def answer(context):
            self.calls += 1
            records = (ARecord(name, IPv4Address(self.calls), 20),)
            self.handed.append(records)
            return records

        return answer


def test_a_fresh_tuple_per_call_is_read_as_itself_in_a_bounded_memo():
    zone = Zone("fresh.test")
    policy = FreshTuples()
    zone.bind("x.fresh.test", policy)
    servers = [AuthoritativeServer("Fresh", [zone])]
    resolvers = [RecursiveResolver(servers, cache=False) for _ in range(50)]
    clients = [
        (resolver, context(0xC6336400 + index, BERLIN, 0.0))
        for index, resolver in enumerate(resolvers)
    ]
    # 1 500 answers against a 512-entry memo: tuples die after each
    # sweep, and their ids come back for the next sweep's tuples.
    for sweep in range(30):
        policy.handed = []
        outcomes = resolve_bulk(clients, "x.fresh.test", now=float(sweep))
        for outcome, records in zip(outcomes, policy.handed):
            (step,) = outcome.steps
            assert step.records is records
            assert (step.name, step.operator) == ("x.fresh.test", "Fresh")
            assert outcome.addresses == (records[0].data,)
        assert len(resolver_module._READS) <= _MEMO_BOUND
        assert all(len(reads) <= _MEMO_BOUND for reads in resolver_module._READS.values())
        del outcomes, records, step
    assert policy.calls == 30 * 50


def test_one_tuple_served_under_two_names_and_by_two_operators():
    shared = (ARecord("x.shared.test", IPv4Address.parse("192.0.2.1"), 20),)
    universes = []
    for operator, name in [("One", "x.shared.test"), ("Two", "x.shared.test"),
                           ("Two", "y.shared.test")]:
        zone = Zone("shared.test")
        zone.bind(name, StaticPolicy(shared))
        universes.append((operator, name, [AuthoritativeServer(operator, [zone])]))
    for _ in range(2):
        for operator, name, servers in universes:
            resolver = RecursiveResolver(servers)
            (outcome,) = resolve_bulk(
                [(resolver, context(0xC6336407, BERLIN, 0.0))], name
            )
            (step,) = outcome.steps
            assert step.records is shared
            assert (step.name, step.operator) == (name, operator)


def test_a_campaign_window_reads_each_distinct_answer_about_once(monkeypatch):
    """Twelve hours from Sep 19 12:00 at the paper's 5-minute cadence,
    80 global and 20 ISP probes: every tuple a policy hands the chase is
    kept alive here, so ids are never reused, and the reads may exceed
    the distinct tuples by at most one memo's worth.  A memo of 512 reads
    shared by every name read 6 070 times for 2 675 tuples here."""
    reads = {"count": 0}
    handed = {}
    read_answer = resolver_module._read_answer
    answer_at = Zone.answer_at

    def counted(*args):
        reads["count"] += 1
        return read_answer(*args)

    def spied(self, name, now):
        bound = answer_at(self, name, now)
        if bound is None:
            return None

        def answer(client):
            records = bound(client)
            handed[id(records)] = records
            return records

        return answer

    monkeypatch.setattr(resolver_module, "_read_answer", counted)
    monkeypatch.setattr(Zone, "answer_at", spied)
    resolver_module._READS.clear()
    config = ScenarioConfig(
        global_probe_count=80, isp_probe_count=20, global_dns_interval=300.0
    )
    engine = SimulationEngine(Sep2017Scenario(config), step_seconds=300.0)
    start = TIMELINE.at(9, 19, 12)
    engine.run(start, start + 12 * 3600.0)
    assert len(handed) > 2 * _MEMO_BOUND  # enough distinct answers to thrash
    assert reads["count"] <= len(handed) + _MEMO_BOUND
