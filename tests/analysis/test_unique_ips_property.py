"""The store's unique-IP fold reads the same series as the object path.

``unique_ip_series`` / ``windowed_unique_ip_series`` /
``series_by_continent`` over a ``MeasurementStore`` never rebuild a
measurement: each row's address slice lands in its bin's open set and a
closing bin keeps only its per-category counts.  The oracle is the same
functions over the list of ``DnsMeasurement``s the store was fed.
Stores seal every 1-6 rows and spill at a zero budget or never, so bins
cross segment edges and spilled segments are read back; rows with no
addresses still create their bin; windows start and end anywhere.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.analysis.unique_ips import (  # noqa: E402
    series_by_continent,
    unique_ip_series,
    windowed_unique_ip_series,
)
from repro.atlas.results import DnsMeasurement, MeasurementStore  # noqa: E402
from repro.net.asys import ASN  # noqa: E402
from repro.net.geo import Continent  # noqa: E402
from repro.net.ipv4 import IPv4Address  # noqa: E402

# Few continents and addresses, so facets and bins repeat values; steps
# land on, just before and just after the edges of every drawn bin.
_continents = st.sampled_from(
    [Continent.EUROPE, Continent.ASIA, Continent.NORTH_AMERICA, Continent.AFRICA]
)
_addresses = st.lists(
    st.sampled_from([0x11000001, 0x11000002, 0x17000001, 0x17000002, 0x08080808]),
    max_size=4,
).map(lambda values: tuple(IPv4Address(value) for value in values))
_steps = st.sampled_from([0.0, 0.0, 300.0, 1.0, 3599.0, 3600.0, 7199.0, 7200.0])
_rows = st.lists(st.tuples(_steps, _continents, _addresses), max_size=40)
_bins = st.sampled_from([300.0, 3600.0, 7200.0, 43200.0])
_edges = st.none() | st.integers(0, 60).map(lambda k: k * 1800.0 - 1.0)


def categorize(address):
    return {17: "Apple", 23: "Akamai"}.get(address.octets[0], "other")


def measurements_of(rows):
    measurements, now = [], 0.0
    for probe, (step, continent, addresses) in enumerate(rows):
        now += step
        measurements.append(
            DnsMeasurement(
                probe_id=probe % 5,
                timestamp=now,
                target="appldnld.apple.com",
                probe_asn=ASN(64520),
                continent=continent,
                country="de",
                rcode="NOERROR" if addresses else "SERVFAIL",
                chain=("appldnld.apple.com",),
                addresses=addresses,
            )
        )
    return measurements


def ordered(series):
    """A series with its count orders made visible (``==`` ignores them)."""
    return [(point.bin_start, list(point.counts.items())) for point in series]


@settings(max_examples=150, deadline=None)
@given(
    rows=_rows,
    segment_rows=st.integers(1, 6),
    spill=st.booleans(),
    bin_seconds=_bins,
    start=_edges,
    end=_edges,
    continent=st.none() | _continents,
)
def test_the_store_fold_equals_the_object_path(
    rows, segment_rows, spill, bin_seconds, start, end, continent
):
    measurements = measurements_of(rows)
    store = MeasurementStore(
        segment_rows=segment_rows, memory_budget_bytes=0 if spill else None
    )
    for measurement in measurements:
        store.add_dns(measurement)
    if spill and len(measurements) > segment_rows:
        assert store.spilled_segment_count > 0

    whole = unique_ip_series(measurements, categorize, bin_seconds, continent)
    folded = unique_ip_series(store, categorize, bin_seconds, continent)
    assert folded == whole and ordered(folded) == ordered(whole)

    window = [
        m for m in measurements
        if (start is None or start <= m.timestamp)
        and (end is None or m.timestamp < end)
    ]
    expected = unique_ip_series(window, categorize, bin_seconds)
    windowed = windowed_unique_ip_series(
        store, categorize, bin_seconds, start=start, end=end
    )
    assert windowed == expected and ordered(windowed) == ordered(expected)

    facets = series_by_continent(store, categorize, bin_seconds)
    assert list(facets) == list(Continent)
    assert facets == series_by_continent(measurements, categorize, bin_seconds)


def test_a_store_that_goes_back_in_time_is_refused():
    """A restored store whose segments are out of time order would fold a
    reopened bin over its closed counts; the fold raises instead."""
    store = MeasurementStore(segment_rows=1)
    for measurement in measurements_of(
        [(0.0, Continent.EUROPE, (IPv4Address(0x11000001),)),
         (7200.0, Continent.EUROPE, (IPv4Address(0x17000001),)),
         (7200.0, Continent.EUROPE, ())]
    ):
        store.add_dns(measurement)
    state = store.dump_state()
    first, second = state["segments"][:2]
    first["payload"], second["payload"] = second["payload"], first["payload"]
    restored = MeasurementStore(segment_rows=1)
    restored.restore_state(state)
    with pytest.raises(ValueError, match="back in time"):
        unique_ip_series(restored, categorize, 3600.0)
    with pytest.raises(ValueError, match="back in time"):
        series_by_continent(restored, categorize, 3600.0)
