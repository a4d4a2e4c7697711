"""Tests for the columnar segmented store (repro.atlas.columnar)."""

import pickle
from array import array

import pytest

from repro.atlas.columnar import CONTINENTS, DnsColumns, DnsSegment, SegmentFormatError
from repro.atlas.results import (
    DnsMeasurement,
    MeasurementStore,
    TracerouteMeasurement,
)
from repro.net.asys import ASN
from repro.net.geo import Continent
from repro.net.ipv4 import IPv4Address


def measurement(ts, addresses=(), probe=1, continent=Continent.EUROPE,
                rcode="NOERROR", target="appldnld.apple.com"):
    return DnsMeasurement(
        probe_id=probe,
        timestamp=ts,
        target=target,
        probe_asn=ASN(64520),
        continent=continent,
        country="de",
        rcode=rcode,
        chain=(target, "dl.apple.com"),
        addresses=tuple(IPv4Address.parse(a) for a in addresses),
    )


def sample_measurements(count=20):
    out = []
    for index in range(count):
        addresses = [f"17.0.{index % 3}.{1 + index % 5}"]
        if index % 4 == 0:
            addresses.append(f"23.0.0.{1 + index}")
        if index % 7 == 3:
            addresses = []  # failed resolutions carry no addresses
        out.append(
            measurement(
                float(index * 10),
                addresses,
                probe=index % 6,
                continent=list(Continent)[index % len(Continent)],
                rcode="NOERROR" if addresses else "SERVFAIL",
            )
        )
    return out


class TestDnsColumns:
    def test_round_trip_exact(self):
        originals = sample_measurements()
        columns = DnsColumns.from_measurements(originals)
        assert len(columns) == len(originals)
        assert list(columns.iter_measurements()) == originals

    def test_binary_round_trip(self):
        columns = DnsColumns.from_measurements(sample_measurements())
        restored = DnsColumns.from_bytes(columns.to_bytes())
        assert list(restored.iter_measurements()) == list(
            columns.iter_measurements()
        )
        # A restored block can still be appended to (indexes rebuild).
        extra = measurement(10_000.0, ["17.9.9.9"])
        restored.append(extra)
        assert restored.measurement(len(restored) - 1) == extra

    def test_pickle_round_trip(self):
        columns = DnsColumns.from_measurements(sample_measurements())
        restored = pickle.loads(pickle.dumps(columns))
        assert list(restored.iter_measurements()) == list(
            columns.iter_measurements()
        )

    def test_extend_reinterns(self):
        # The destination already holds rows whose tables list the
        # source's values in another order: ids are remapped, and the
        # result is byte-identical to appending the rows one by one.
        originals = sample_measurements()
        head = [measurement(0.0, [], rcode="SERVFAIL", target="other.example")]
        dest = DnsColumns.from_measurements(head)
        dest.extend(DnsColumns.from_measurements(originals), 2, 15)
        expected = DnsColumns.from_measurements(head + originals[2:15])
        assert dest.to_bytes() == expected.to_bytes()

    def test_bad_magic_rejected(self):
        with pytest.raises(SegmentFormatError):
            DnsColumns.from_bytes(b"NOTSEG\x00payload")

    def test_truncated_payload_rejected(self):
        payload = DnsColumns.from_measurements(sample_measurements()).to_bytes()
        with pytest.raises(SegmentFormatError):
            DnsColumns.from_bytes(payload[: len(payload) - 8])


def _two_rows():
    """Two rows, one address between them, every table one entry long."""
    return DnsColumns.from_measurements(
        [measurement(0.0, ["17.0.0.1"]), measurement(10.0)]
    )


def _rows_disagree(block):
    block.probe_ids = array("q", block.probe_ids[:1])
    block.asns = array("I")


def _offsets_overrun(block):
    block.addr_offsets = array("Q", [0, 1, 5])


def _offsets_start_late(block):
    block.addr_offsets = array("Q", [1, 1, 1])


def _offsets_fall(block):
    block.addr_offsets = array("Q", [0, 2, 1])


def _chain_past_table(block):
    block.chains = []


def _continent_past_table(block):
    block.continents[1] = len(CONTINENTS)


def _target_past_table(block):
    block.target_ids[1] = 1


def _times_fall(block):
    block.times = array("d", [10.0, 0.0])


BAD_BLOCKS = [
    (_rows_disagree, "row count"),
    (_offsets_overrun, "address offsets"),
    (_offsets_start_late, "address offsets"),
    (_offsets_fall, "address offsets"),
    (_chain_past_table, "chain_ids point past"),
    (_continent_past_table, "continents point past"),
    (_target_past_table, "target_ids point past"),
    (_times_fall, "timestamps decrease"),
]


class TestDecodeChecks:
    """A frame with a valid checksum whose columns disagree is refused
    on decode, not left to raise IndexError on the first read."""

    @pytest.mark.parametrize(
        "corrupt, message", BAD_BLOCKS, ids=[f.__name__[1:] for f, _ in BAD_BLOCKS]
    )
    def test_a_block_whose_columns_disagree_is_refused(self, corrupt, message):
        block = _two_rows()
        corrupt(block)
        with pytest.raises(SegmentFormatError, match=message):
            DnsColumns.from_bytes(block.to_bytes())

    def test_a_spilled_segment_is_checked_on_reload(self, tmp_path):
        block = _two_rows()
        _offsets_overrun(block)
        segment = DnsSegment(block, segment_id=1, start_row=0)
        segment.spill(tmp_path / "seg.bin")
        with pytest.raises(SegmentFormatError, match="address offsets"):
            segment.load()

    @pytest.mark.parametrize("part", ["open", "segments"])
    def test_a_restore_refuses_a_bad_block_before_anything_is_restored(self, part):
        source = MeasurementStore(name="dns-store", segment_rows=2)
        for row in range(3):
            source.add_dns(measurement(float(row), ["17.0.0.1"]))
        state = source.dump_state()
        assert state["segments"] and DnsColumns.from_bytes(state["open"])
        block = _two_rows()
        _chain_past_table(block)
        if part == "open":
            state["open"] = block.to_bytes()
        else:
            state["segments"][0] = dict(state["segments"][0], payload=block.to_bytes())
        store = MeasurementStore(name="dns-store", segment_rows=2)
        with pytest.raises(ValueError, match="store 'dns-store': chain_ids"):
            store.restore_state(state)
        assert (store.dns_count, store.segment_count) == (0, 0)
        store.restore_state(source.dump_state())
        assert store.dns_count == 3


class TestDnsSegment:
    def test_summary_fields(self):
        originals = sample_measurements()
        segment = DnsSegment(
            DnsColumns.from_measurements(originals), segment_id=0, start_row=0
        )
        assert segment.min_time == originals[0].timestamp
        assert segment.max_time == originals[-1].timestamp
        expected = {
            a.value for m in originals for a in m.addresses
        }
        assert segment.unique_values == expected

    def test_spill_and_load(self, tmp_path):
        originals = sample_measurements()
        segment = DnsSegment(
            DnsColumns.from_measurements(originals), segment_id=3, start_row=0
        )
        freed = segment.spill(tmp_path / "seg.bin")
        assert freed > 0
        assert not segment.resident
        assert (tmp_path / "seg.bin").exists()
        assert list(segment.load().iter_measurements()) == originals

    def test_empty_segment_rejected(self):
        with pytest.raises(ValueError):
            DnsSegment(DnsColumns(), segment_id=0, start_row=0)


class TestSegmentedStore:
    def test_view_equality_across_seal_boundaries(self):
        originals = sample_measurements(25)
        store = MeasurementStore(segment_rows=7)
        for m in originals:
            store.add_dns(m)
        assert store.segment_count == 3  # 25 rows / 7 per segment
        assert store.dns_count == 25
        assert list(store.dns) == originals
        assert store.dns == originals  # element-wise view equality
        assert store.dns[0] == originals[0]
        assert store.dns[-1] == originals[-1]
        assert store.dns[3:10] == originals[3:10]

    def test_results_independent_of_segment_rows(self):
        originals = sample_measurements(40)
        small = MeasurementStore(segment_rows=5)
        large = MeasurementStore(segment_rows=1000)
        for m in originals:
            small.add_dns(m)
            large.add_dns(m)
        assert list(small.iter_dns()) == list(large.iter_dns())
        assert list(small.dns_between(50.0, 250.0)) == list(
            large.dns_between(50.0, 250.0)
        )
        assert small.unique_addresses() == large.unique_addresses()

    def test_monotonicity_enforced_across_segments(self):
        store = MeasurementStore(segment_rows=2)
        for ts in (0.0, 1.0, 2.0, 2.0):  # equal timestamps are allowed
            store.add_dns(measurement(ts))
        with pytest.raises(ValueError):
            store.add_dns(measurement(1.5))

    def test_traceroute_time_order_enforced(self):
        store = MeasurementStore()
        store.add_traceroute(
            TracerouteMeasurement(1, 10.0, IPv4Address.parse("17.0.0.1"), ())
        )
        store.add_traceroute(  # equal timestamp: a sweep fires many at once
            TracerouteMeasurement(2, 10.0, IPv4Address.parse("17.0.0.2"), ())
        )
        with pytest.raises(ValueError):
            store.add_traceroute(
                TracerouteMeasurement(3, 5.0, IPv4Address.parse("17.0.0.3"), ())
            )

    def test_unique_addresses_immutable_regression(self):
        store = MeasurementStore()
        store.add_dns(measurement(0.0, ["1.1.1.1", "2.2.2.2"]))
        view = store.unique_addresses()
        with pytest.raises(AttributeError):
            view.add(IPv4Address.parse("9.9.9.9"))
        with pytest.raises(AttributeError):
            view.discard(IPv4Address.parse("1.1.1.1"))
        # Later counts stay correct even after the poke attempts.
        store.add_dns(measurement(1.0, ["3.3.3.3"]))
        assert len(store.unique_addresses()) == 3

    def test_block_absorb_matches_object_appends(self):
        originals = sample_measurements(15)
        via_objects = MeasurementStore(segment_rows=4)
        via_block = MeasurementStore(segment_rows=4)
        for m in originals:
            via_objects.add_dns(m)
        via_block.add_dns_block(DnsColumns.from_measurements(originals))
        assert via_block.dns == via_objects.dns
        assert via_block.segment_summaries() == via_objects.segment_summaries()
        assert via_block.unique_addresses() == via_objects.unique_addresses()

    def test_add_dns_block_enforces_time_order(self):
        store = MeasurementStore(segment_rows=2)
        store.add_dns(measurement(10.0, ["17.0.0.1"]))
        before = store.dump_state()
        for times in ((12.0, 11.0), (9.0, 12.0)):  # unordered; back in time
            block = DnsColumns.from_measurements(
                [measurement(ts, ["17.0.0.2"]) for ts in times]
            )
            with pytest.raises(ValueError, match="time order"):
                store.add_dns_block(block)
            assert store.dump_state() == before


class TestSpillPath:
    def build_spilled(self, tmp_path, count=200, rows=16):
        originals = sample_measurements(count)
        budget = 2048  # far below the dataset's column bytes
        store = MeasurementStore(
            segment_rows=rows,
            memory_budget_bytes=budget,
            spill_dir=tmp_path,
            name="spilltest",
        )
        for m in originals:
            store.add_dns(m)
        return store, originals, budget

    def test_spill_bounds_resident_bytes(self, tmp_path):
        store, originals, budget = self.build_spilled(tmp_path)
        assert store.spilled_segment_count > 0
        seg_files = list(tmp_path.glob("spilltest-*.seg"))
        assert len(seg_files) == store.spilled_segment_count
        # Sealed-resident bytes respect the budget; the open block (less
        # than one segment of rows) is the only slack on top.
        open_slack = store.resident_bytes - store._sealed_resident_bytes
        assert store.resident_bytes <= budget + open_slack
        assert store._sealed_resident_bytes <= budget

    def test_spilled_history_reads_back_exactly(self, tmp_path):
        store, originals, _ = self.build_spilled(tmp_path)
        assert list(store.iter_dns()) == originals
        assert store.dns[0] == originals[0]  # random access reloads
        expected = [m for m in originals if 300.0 <= m.timestamp < 900.0]
        assert list(store.dns_between(300.0, 900.0)) == expected
        assert store.unique_addresses() == frozenset(
            a for m in originals for a in m.addresses
        )

    def test_window_prunes_spilled_segments(self, tmp_path):
        store, originals, _ = self.build_spilled(tmp_path)
        assert not store._load_cache
        # A window entirely inside the still-resident tail never decodes
        # a spilled segment (the decode cache stays empty).
        tail_start = originals[-5].timestamp
        expected = [m for m in originals if m.timestamp >= tail_start]
        got = list(store.dns_between(tail_start, originals[-1].timestamp + 1))
        assert got == expected
        assert not store._load_cache

    def test_temp_dir_fallback(self):
        store = MeasurementStore(segment_rows=8, memory_budget_bytes=0)
        for m in sample_measurements(40):
            store.add_dns(m)
        assert store.spilled_segment_count > 0
        assert store.spill_dir is not None
        assert list(store.iter_dns()) == sample_measurements(40)


class TestAtomicSpill:
    """Crash-safety of the spill path: a reader never sees a torn
    ``RSEG`` payload, and torn payloads are detected, not decoded."""

    def seg(self, count=20):
        return DnsSegment(
            DnsColumns.from_measurements(sample_measurements(count)),
            segment_id=7,
            start_row=0,
        )

    def test_spill_leaves_no_tmp_residue(self, tmp_path):
        segment = self.seg()
        segment.spill(tmp_path / "seg.bin")
        assert [p.name for p in tmp_path.iterdir()] == ["seg.bin"]

    def test_truncated_header_detected(self, tmp_path):
        path = tmp_path / "seg.bin"
        self.seg().spill(path)
        path.write_bytes(path.read_bytes()[:8])  # magic + partial header len
        with pytest.raises(SegmentFormatError):
            DnsColumns.from_bytes(path.read_bytes())

    def test_torn_mid_column_detected(self, tmp_path):
        path = tmp_path / "seg.bin"
        segment = self.seg()
        segment.spill(path)
        payload = path.read_bytes()
        path.write_bytes(payload[: int(len(payload) * 0.75)])
        with pytest.raises(SegmentFormatError, match="truncated"):
            segment.load()

    def test_trailing_bytes_detected(self, tmp_path):
        path = tmp_path / "seg.bin"
        segment = self.seg()
        segment.spill(path)
        path.write_bytes(path.read_bytes() + b"\x00\x00\x00")
        with pytest.raises(SegmentFormatError, match="trailing bytes"):
            segment.load()

    def test_missing_spill_file_named_in_error(self, tmp_path):
        path = tmp_path / "seg.bin"
        segment = self.seg()
        segment.spill(path)
        path.unlink()
        with pytest.raises(SegmentFormatError, match="seg.bin"):
            segment.load()
