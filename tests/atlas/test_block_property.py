"""A DNS tick lands as one block: block appends ≡ row appends, byte for byte.

``MeasurementStore.add_dns_block`` is the store's one append path and
``add_dns`` wraps one row of it, so the oracle here is a store fed the
same measurements one ``add_dns`` at a time.  Blocks straddle several
seals (``segment_rows`` 1..50), spill at a zero budget or never, reuse
intern values across blocks or bring fresh ones, and may be empty.
``DnsColumns.gather`` — the sharded coordinator's interleave — is held
to appending the same rows one by one in its permutation's order.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.atlas.columnar import DnsColumns
from repro.atlas.results import DnsMeasurement, MeasurementStore
from repro.net.asys import ASN
from repro.net.geo import Continent
from repro.net.ipv4 import IPv4Address

# Shared pools make later blocks hit values an earlier block interned;
# the fresh draws make them bring new ones.
_NAMES = ("appldnld.apple.com", "a.example", "b.example", "c.example")
_countries = st.sampled_from(("de", "fr", "us")) | st.from_regex(r"[a-z]{2}", fullmatch=True)
_chains = st.lists(st.sampled_from(_NAMES), min_size=1, max_size=3).map(tuple)
_addresses = st.lists(
    st.sampled_from((1, 2, 3, 301858817)) | st.integers(0, 2**32 - 1),
    max_size=3,
).map(lambda values: tuple(IPv4Address(value) for value in values))


@st.composite
def _measurement(draw, timestamp):
    return DnsMeasurement(
        probe_id=draw(st.integers(0, 7)),
        timestamp=timestamp,
        target=draw(st.sampled_from(_NAMES[:2])),
        probe_asn=ASN(draw(st.sampled_from((64500, 64501, 3320)))),
        continent=draw(st.sampled_from(list(Continent))),
        country=draw(_countries),
        rcode=draw(st.sampled_from(("NOERROR", "SERVFAIL", "NXDOMAIN"))),
        chain=draw(_chains),
        addresses=draw(_addresses),
    )


@st.composite
def _ticks(draw, max_blocks=6, max_rows=25):
    """Time-ordered blocks of measurements: mostly one timestamp per
    block (a campaign tick), sometimes rising inside one."""
    now = 0.0
    blocks = []
    for _ in range(draw(st.integers(0, max_blocks))):
        now += draw(st.sampled_from((0.0, 300.0, 1800.0)))
        rows = []
        for _ in range(draw(st.integers(0, max_rows))):
            now += draw(st.sampled_from((0.0, 0.0, 0.0, 1.0)))
            rows.append(draw(_measurement(now)))
        blocks.append(rows)
    return blocks


def _store(segment_rows, budget, spill_dir=None):
    return MeasurementStore(
        segment_rows=segment_rows,
        memory_budget_bytes=budget,
        spill_dir=spill_dir,
        name="prop",
    )


@settings(max_examples=80, deadline=None)
@given(
    ticks=_ticks(),
    segment_rows=st.integers(1, 50),
    budget=st.sampled_from((0, None)),
    window=st.tuples(st.floats(0, 12_000), st.floats(0, 12_000)),
)
def test_block_appends_equal_row_appends(ticks, segment_rows, budget, window):
    with tempfile.TemporaryDirectory() as spill:
        by_block = _store(segment_rows, budget, Path(spill) / "block")
        by_row = _store(segment_rows, budget, Path(spill) / "row")
        for rows in ticks:
            by_block.add_dns_block(DnsColumns.from_measurements(rows))
            for measurement in rows:
                by_row.add_dns(measurement)
        assert by_block.dump_state() == by_row.dump_state()
        assert by_block.segment_summaries() == by_row.segment_summaries()
        assert by_block.spilled_segment_count == by_row.spilled_segment_count
        assert by_block.unique_addresses() == by_row.unique_addresses()
        start, end = sorted(window)
        assert list(by_block.dns_between(start, end)) == list(
            by_row.dns_between(start, end)
        )
        assert list(by_block.iter_dns()) == [m for rows in ticks for m in rows]


@settings(max_examples=40, deadline=None)
@given(
    ticks=_ticks(max_blocks=3, max_rows=10),
    segment_rows=st.integers(1, 50),
    unordered=st.booleans(),
    data=st.data(),
)
def test_a_block_out_of_time_order_changes_nothing(
    ticks, segment_rows, unordered, data
):
    store = _store(segment_rows, None)
    for rows in ticks:
        store.add_dns_block(DnsColumns.from_measurements(rows))
    last = max((m.timestamp for rows in ticks for m in rows), default=None)
    assume(unordered or last is not None)
    if unordered:
        base = 0.0 if last is None else last
        times = [base + 5.0] * 3 + [base + 1.0]  # goes back inside itself
    else:
        times = [last - 1.0] * 3  # starts before the store's last row
    block = DnsColumns.from_measurements(
        [data.draw(_measurement(ts)) for ts in times]
    )
    before = store.dump_state()
    with pytest.raises(ValueError, match="time order"):
        store.add_dns_block(block)
    assert store.dump_state() == before


@settings(max_examples=100, deadline=None)
@given(
    slices=st.lists(
        st.lists(_measurement(600.0), max_size=12), min_size=1, max_size=4
    ),
    segment_rows=st.integers(1, 50),
    data=st.data(),
)
def test_gather_equals_row_appends_in_permutation_order(slices, segment_rows, data):
    laid_out = [m for rows in slices for m in rows]
    order = data.draw(st.permutations(range(len(laid_out))), label="order")
    expected = [laid_out[i] for i in order]
    gathered = DnsColumns.gather(
        [DnsColumns.from_measurements(rows) for rows in slices], order
    )
    assert list(gathered.iter_measurements()) == expected
    # What the coordinator does with it: the store's append re-interns,
    # so the bytes are those of appending the rows one by one.
    by_gather = _store(segment_rows, None)
    by_gather.add_dns_block(gathered)
    by_row = _store(segment_rows, None)
    for measurement in expected:
        by_row.add_dns(measurement)
    assert by_gather.dump_state() == by_row.dump_state()
