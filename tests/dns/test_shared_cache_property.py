"""Property tests for the one TTL cache and the front's POP caches.

:class:`~repro.dns.ttlcache.TtlCache` is checked op by op against a
plain-dict model of its policy (expiry, sweep, capacity, counters), and
the public-resolver front's per-POP cache, driven through its own lookup
path, must keep exactly the names that model keeps under expiry and
capacity pressure.
"""

import asyncio
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.dns.records import ARecord  # noqa: E402
from repro.dns.ttlcache import TtlCache  # noqa: E402
from repro.dns.wire import ClientSubnet, WireMessage  # noqa: E402
from repro.net.ipv4 import IPv4Address, IPv4Prefix  # noqa: E402
from repro.obs import MetricsRegistry  # noqa: E402
from repro.serve import PublicResolverFront, resolverfront  # noqa: E402


class _Entry:
    def __init__(self, expires_at):
        self.expires_at = expires_at


class DictModel:
    """The policy spelled out over a plain ``{key: expires_at}`` dict."""

    def __init__(self, capacity):
        self.entries = {}
        self.capacity = capacity
        self.horizon = float("-inf")
        self.hits = self.misses = self.evictions = 0

    def get(self, key, now):
        self.horizon = max(self.horizon, now)
        if key in self.entries:
            if self.entries[key] > now:
                self.hits += 1
                return True
            del self.entries[key]
            self.evictions += 1
        self.misses += 1
        return False

    def hit(self, key, now):
        # The fast-path probe: a live entry counts a hit, anything else
        # counts nothing and drops nothing.
        self.horizon = max(self.horizon, now)
        if self.entries.get(key, now) > now:
            self.hits += 1
            return True
        return False

    def put(self, key, expires_at, now):
        self.entries[key] = expires_at
        if self.capacity is not None and len(self.entries) > self.capacity:
            self.sweep(now)
            while len(self.entries) > self.capacity:
                victim = min(
                    self.entries, key=lambda k: (self.entries[k], repr(k))
                )
                del self.entries[victim]
                self.evictions += 1

    def sweep(self, now=None):
        horizon = self.horizon if now is None else now
        expired = [k for k, exp in self.entries.items() if exp <= horizon]
        for key in expired:
            del self.entries[key]
        self.evictions += len(expired)
        return len(expired)

    def live(self):
        return {k for k, exp in self.entries.items() if exp > self.horizon}


# The two key shapes the owners build: bare qname (the resolver) and
# (qname, network value, echoed scope) (the front) — few enough values
# to collide.
cache_keys = st.one_of(
    st.sampled_from(["a.example", "b.example", "c.example"]),
    st.tuples(
        st.sampled_from(["a.example", "b.example"]),
        st.integers(0, 3).map(lambda n: n << 24),
        st.sampled_from([0, 16, 24]),
    ),
)
cache_ops = st.lists(
    st.tuples(
        st.sampled_from(["get", "hit", "put", "sweep", "sweep_default", "clear"]),
        cache_keys,
        st.integers(0, 40),   # ttl
        st.integers(0, 15),   # clock advance before the op
    ),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(capacity=st.none() | st.integers(1, 5), ops=cache_ops)
def test_ttl_cache_matches_the_plain_dict_model(capacity, ops):
    registry = MetricsRegistry()
    counters = {
        name: registry.counter(f"cache_{name}_total")
        for name in ("hits", "misses", "evictions")
    }
    cache = TtlCache(capacity, **counters)
    model = DictModel(capacity)
    now = 0.0
    for op, key, ttl, advance in ops:
        now += advance
        if op in ("get", "hit"):
            entry = getattr(cache, op)(key, now)
            assert (entry is not None) == getattr(model, op)(key, now)
            if entry is not None:
                assert entry.expires_at == model.entries[key]
        elif op == "put":
            cache.put(key, _Entry(now + ttl), now)
            model.put(key, now + ttl, now)
        elif op == "sweep":
            assert cache.sweep(now) == model.sweep(now)
        elif op == "sweep_default":
            assert cache.sweep() == model.sweep()
        else:
            cache.clear()
            model.entries.clear()
        assert cache.live_size == len(model.live())
        assert (cache.hits, cache.misses, cache.evictions) == (
            model.hits, model.misses, model.evictions
        )
    # The registry mirrors see exactly what the plain counters saw.
    for name, counter in counters.items():
        assert counter.value == getattr(model, name)


NAMES = [f"n{index:02d}.example.com" for index in range(8)]
CLIENT = IPv4Address.parse("100.64.7.9")


def _model_live_sets(ttls, capacity, trace):
    """Live names after each query of ``trace``, by the dict model: a
    query that misses stores its name for its TTL."""
    model = DictModel(capacity)
    live_sets = []
    for index, now in trace:
        if not model.get(NAMES[index], now):
            model.put(NAMES[index], now + ttls[index], now)
        live_sets.append({
            probed for probed, name in enumerate(NAMES)
            if model.entries.get(name, now) > now
        })
    return live_sets


def _front_live_sets(ttls, capacity, trace):
    """Live names after each query of ``trace``, through the resolver
    front's per-POP cache."""

    class Upstream:
        def __init__(self):
            self.queries = 0

        async def query(self, name, client):
            self.queries += 1
            ttl = ttls[NAMES.index(name)]
            return WireMessage(
                message_id=1, is_response=True, authoritative=True,
                answers=[ARecord(name, IPv4Address.parse("17.0.0.1"), ttl)],
                client_subnet=ClientSubnet(
                    IPv4Prefix.containing(client, 24), scope_length=24
                ),
            )

    async def replay(prefix):
        clock = [0.0]
        # The POP cache size is a constant; patch it for this front.
        with mock.patch.object(resolverfront, "POP_CACHE_CAPACITY", capacity):
            front = PublicResolverFront(
                metrics=MetricsRegistry(), clock=lambda: clock[0],
            )
        front._client = upstream = Upstream()
        pop = front._pop_for(CLIENT)

        async def lookup(name, now):
            clock[0] = now
            before = upstream.queries
            await front._lookup(pop, name, CLIENT)
            return upstream.queries == before  # served from the cache

        for index, now in prefix:
            await lookup(NAMES[index], now)
        return lookup

    async def run():
        live_sets = []
        for step in range(1, len(trace) + 1):
            now = trace[step - 1][1]
            live = set()
            for index, name in enumerate(NAMES):
                lookup = await replay(trace[:step])
                if await lookup(name, now):
                    live.add(index)
            live_sets.append(live)
        return live_sets

    return asyncio.run(run())


@settings(max_examples=25, deadline=None)
@given(
    ttls=st.lists(st.integers(1, 30), min_size=len(NAMES), max_size=len(NAMES)),
    capacity=st.integers(1, 4),
    steps=st.lists(
        st.tuples(st.integers(0, len(NAMES) - 1), st.integers(0, 12)),
        min_size=1, max_size=10,
    ),
)
def test_front_evicts_what_the_dict_model_evicts(ttls, capacity, steps):
    # One (name, ttl, now) trace: whatever expiry and capacity pressure
    # do, the names the front can still serve after every insert —
    # hence the victim sequence — are the ones the model keeps.
    trace, now = [], 0.0
    for index, advance in steps:
        now += advance
        trace.append((index, now))
    assert _model_live_sets(ttls, capacity, trace) == _front_live_sets(
        ttls, capacity, trace
    )
