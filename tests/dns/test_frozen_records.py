"""``QueryContext``, ``Resolution`` and ``ResolutionStep`` fill their own
``__dict__`` instead of paying ``object.__setattr__`` per field — and
are, to everything outside ``__init__``, the frozen dataclasses they
were: immutable, compared / hashed / printed field by field, copied by
``dataclasses.replace`` and pickled across the shard pipe.
"""

import pickle
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dns.query import Question, QueryContext, RCode
from repro.dns.records import ARecord, CnameRecord
from repro.dns.resolver import Resolution, ResolutionStep
from repro.net.geo import Continent, Coordinates, MappingRegion
from repro.net.ipv4 import IPv4Address

ADDRESS = IPv4Address.parse("17.253.0.9")
STEPS = (
    ResolutionStep("a.example", "Apple", (CnameRecord("a.example", "b.example", 30),)),
    ResolutionStep("b.example", "Akamai", (ARecord("b.example", ADDRESS, 15),), True),
)

contexts = st.builds(
    QueryContext,
    client=st.integers(0, 2**32 - 1).map(IPv4Address),
    coordinates=st.builds(Coordinates, st.floats(-90, 90), st.floats(-180, 180)),
    continent=st.sampled_from(Continent),
    country=st.sampled_from(["de", "us", "in", "cn", "jp"]),
    now=st.floats(0.0, 1e9),
)
resolutions = st.builds(
    Resolution,
    question=st.sampled_from(["a.example", "other.example"]).map(Question.of),
    steps=st.sampled_from([(), STEPS[:1], STEPS]),
    rcode=st.sampled_from(RCode),
)


def as_the_generated_methods_would(record):
    """(repr, hash) the way ``@dataclass(frozen=True)`` derives them."""
    shown = ", ".join(
        f"{f.name}={getattr(record, f.name)!r}" for f in fields(record) if f.repr
    )
    compared = tuple(getattr(record, f.name) for f in fields(record) if f.compare)
    return f"{type(record).__name__}({shown})", hash(compared)


@given(record=st.one_of(contexts, resolutions, st.sampled_from(STEPS)))
def test_reads_as_the_frozen_dataclass_it_is(record):
    assert (repr(record), hash(record)) == as_the_generated_methods_would(record)
    for f in fields(record):
        with pytest.raises(FrozenInstanceError):
            setattr(record, f.name, None)
    with pytest.raises(FrozenInstanceError):
        record.anything_else = 1
    with pytest.raises(FrozenInstanceError):
        delattr(record, fields(record)[0].name)
    values = {f.name: getattr(record, f.name) for f in fields(record) if f.init}
    twin = type(record)(**values)
    assert twin == record and hash(twin) == hash(record) and twin is not record
    assert replace(record) == record
    shipped = pickle.loads(pickle.dumps(record, pickle.HIGHEST_PROTOCOL))
    assert shipped == record and shipped.__dict__ == record.__dict__


@given(context=contexts, later=st.floats(0.0, 1e9), other=st.sampled_from(Continent))
def test_a_context_keeps_its_region_beside_its_continent(context, later, other):
    assert context.region is MappingRegion.for_continent(context.continent)
    assert "region" not in repr(context)
    # The same client, asked at another time.
    reframed = replace(context, now=later)
    assert reframed.now == later and reframed.region is context.region
    assert (reframed == context) == (later == context.now)
    moved = replace(context, continent=other)
    assert moved.region is MappingRegion.for_continent(other)
    with pytest.raises(ValueError):
        replace(context, region=MappingRegion.US)  # derived, never passed


def test_every_continent_has_a_region():
    for continent in Continent:
        context = QueryContext(ADDRESS, Coordinates(0.0, 0.0), continent, "de")
        assert context.region is MappingRegion.for_continent(continent)
        assert context.now == 0.0
    with pytest.raises(KeyError):
        QueryContext(ADDRESS, Coordinates(0.0, 0.0), "Europe ", "de")


def test_positional_and_keyword_construction_agree():
    by_position = Resolution(Question.of("a.example"), STEPS)
    by_keyword = Resolution(steps=STEPS, question=Question.of("a.example"))
    assert by_position == by_keyword and by_position.rcode is RCode.NOERROR
    assert by_position.addresses == (ADDRESS,)
    # The chain views are not fields: a differing rcode is the only difference.
    assert replace(by_position, rcode=RCode.SERVFAIL) != by_position
    with pytest.raises(TypeError):
        Resolution(Question.of("a.example"))
    with pytest.raises(TypeError):
        QueryContext(ADDRESS, Coordinates(0.0, 0.0), Continent.ASIA)
