"""Model test: :class:`~repro.http.messages.Headers` against a plain list.

``Headers`` answers lookups from an index it builds on the first one
and keeps in step from then on; a copy starts without one.  The oracle
is the obvious list of ``(name, value)`` pairs filtered by lowered name
on every call.  A rule-based machine interleaves every operation on two
related objects — an original and a copy taken at an arbitrary moment.
Entries and length are compared after each step, lookups are steps of
their own (a lookup is what builds the index, so runs of mutations with
and without one in between both occur), and everything is looked up at
the end: an index that went stale, or that two objects came to share,
shows as a disagreement.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.stateful import (  # noqa: E402
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.http.messages import Headers  # noqa: E402

# Few names, in every case mix, so fields collide; few values, so equal
# (name, value) entries occur too.
names = st.sampled_from(
    ["Via", "via", "VIA", "X-Cache", "x-cache", "X-CACHE", "Host", "hOsT", "Range"]
)
values = st.sampled_from(["", "a", "b", "miss", "hit-fresh, miss"])
sides = st.sampled_from([0, 1])


class Oracle:
    """A header map with no state but the entries themselves."""

    def __init__(self, entries=()):
        self.entries = list(entries)

    def named(self, name):
        return [v for n, v in self.entries if n.lower() == name.lower()]

    def add(self, name, value):
        self.entries.append((name, value))

    def set(self, name, value):
        self.entries = [
            (n, v) for n, v in self.entries if n.lower() != name.lower()
        ]
        self.entries.append((name, value))

    def get(self, name, default=None):
        found = self.named(name)
        return ", ".join(found) if found else default


class HeadersAgainstOracle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        # Side 0 is the original, side 1 the latest copy of either.
        self.real = [Headers(), Headers()]
        self.model = [Oracle(), Oracle()]

    @rule(side=sides, name=names, value=values)
    def add(self, side, name, value):
        self.real[side].add(name, value)
        self.model[side].add(name, value)

    @rule(side=sides, name=names, value=values)
    def set(self, side, name, value):
        self.real[side].set(name, value)
        self.model[side].set(name, value)

    @rule(side=sides, name=names)
    def look_up(self, side, name):
        # A lookup is what builds the index: it has to be an operation
        # of its own, taken or not before the next mutation or copy.
        real, model = self.real[side], self.model[side]
        assert real.get(name) == model.get(name)
        assert real.get(name, "fallback") == model.get(name, "fallback")
        assert real.get_all(name) == model.named(name)
        assert (name in real) == bool(model.named(name))

    @rule(source=sides)
    def copy(self, source):
        self.real[1 - source] = self.real[source].copy()
        self.model[1 - source] = Oracle(self.model[source].entries)

    @rule(initial=st.dictionaries(names, values, max_size=4), side=sides)
    def construct(self, initial, side):
        self.real[side] = Headers(initial)
        self.model[side] = Oracle(initial.items())

    @invariant()
    def entries_agree(self):
        # Iteration and length only: they never touch the index, so a
        # run of mutations with no lookup in between stays possible.
        for real, model in zip(self.real, self.model):
            assert list(real) == model.entries
            assert len(real) == len(model.entries)

    def teardown(self):
        for real, model in zip(self.real, self.model):
            for name in ("via", "X-Cache", "HOST", "range", "absent"):
                assert real.get(name) == model.get(name)
                assert real.get_all(name) == model.named(name)
                assert (name in real) == bool(model.named(name))
            assert 5 not in real


HeadersAgainstOracle.TestCase.settings = settings(
    max_examples=200, stateful_step_count=30, deadline=None
)
TestHeadersAgainstOracle = HeadersAgainstOracle.TestCase


def test_a_copy_carries_no_index_and_no_dict():
    """What the caches hold per admitted object stays two slots wide."""
    original = Headers({"Via": "x", "X-Cache": "miss"})
    assert original.get("via") == "x"  # builds the original's index
    duplicate = original.copy()
    assert duplicate._index is None
    assert not hasattr(duplicate, "__dict__")
    assert duplicate.get("VIA") == "x"
