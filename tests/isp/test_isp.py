"""Tests for the ISP substrate: topology, BGP, Netflow, SNMP, classify."""

import math
import pickle
from array import array

import pytest

from repro.isp.bgp import BgpRib, BgpRoute
from repro.isp.classify import ClassifiedFlow, TrafficClassifier
from repro.isp.netflow import FlowLog, FlowRecord, NetflowCollector
from repro.isp.snmp import SnmpCounters
from repro.isp.topology import EyeballIsp, PeeringLink
from repro.net.asys import AS_AKAMAI, AS_APPLE, AS_LIMELIGHT, ASN
from repro.net.ipv4 import IPv4Address, IPv4Prefix
from repro.obs import MetricsRegistry, use_registry

AS_ISP = ASN(64496)
AS_TRANSIT = ASN(65001)


@pytest.fixture
def isp():
    return EyeballIsp(AS_ISP, "TestISP", IPv4Prefix.parse("89.0.0.0/12"), [
        PeeringLink("apple-1", "br1", AS_APPLE, 400.0),
        PeeringLink("akamai-1", "br1", AS_AKAMAI, 400.0),
        PeeringLink("akamai-cache", "internal", AS_AKAMAI, 200.0, is_cache_link=True),
        PeeringLink("transit-1", "br2", AS_TRANSIT, 100.0),
        PeeringLink("transit-2", "br2", AS_TRANSIT, 100.0),
    ])


@pytest.fixture
def rib():
    return BgpRib([
        BgpRoute(IPv4Prefix.parse("17.0.0.0/8"), (AS_APPLE,), ("apple-1",)),
        BgpRoute(IPv4Prefix.parse("23.192.0.0/11"), (AS_AKAMAI,), ("akamai-1",)),
        BgpRoute(
            IPv4Prefix.parse("92.122.0.0/15"),
            (AS_TRANSIT, ASN(64512)),
            ("transit-1", "transit-2"),
        ),
    ])


class TestTopology:
    def test_links_for_neighbor(self, isp):
        assert len(isp.links_for(AS_AKAMAI)) == 2
        assert len(isp.links_for(AS_TRANSIT)) == 2
        assert isp.links_for(ASN(65099)) == ()

    def test_direct_peer(self, isp):
        assert isp.is_direct_peer(AS_APPLE)
        assert not isp.is_direct_peer(AS_LIMELIGHT)

    def test_handover_for(self, isp):
        assert isp.handover_for("transit-1") == AS_TRANSIT

    def test_cache_link_counts_as_cdn_direct(self, isp):
        # Section 5.2: internal cache links are direct connections to
        # the CDN controlling the cache.
        assert isp.handover_for("akamai-cache") == AS_AKAMAI

    def test_duplicate_link_rejected(self, isp):
        links = [*isp, PeeringLink("apple-1", "brX", AS_APPLE, 1.0)]
        with pytest.raises(ValueError, match="duplicate link id 'apple-1'"):
            EyeballIsp(AS_ISP, "TestISP", isp.customer_prefix, links)

    def test_capacity_bytes(self):
        link = PeeringLink("l", "r", AS_APPLE, 8.0)  # 8 Gbps
        assert link.capacity_bytes(1.0) == pytest.approx(1e9)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            PeeringLink("l", "r", AS_APPLE, 0.0)


class TestBgp:
    def test_lookup_longest_match(self, rib):
        route = rib.lookup(IPv4Address.parse("17.253.1.1"))
        assert route.origin_asn == AS_APPLE == route.neighbor_asn

    def test_transit_route(self, rib):
        route = rib.lookup(IPv4Address.parse("92.122.0.5"))
        assert route.origin_asn == ASN(64512)
        assert route.neighbor_asn == AS_TRANSIT

    def test_lookup_miss(self, rib):
        assert rib.lookup(IPv4Address.parse("8.8.8.8")) is None
        assert rib.origin_asn(IPv4Address.parse("8.8.8.8")) is None

    def test_route_count_and_replace(self, rib):
        repeat = BgpRoute(IPv4Prefix.parse("17.0.0.0/8"), (AS_APPLE,), ("apple-1",))
        assert len(BgpRib([repeat, repeat])) == 1  # a repeat, not an addition
        assert len(rib) == 3

    def test_route_validation(self):
        with pytest.raises(ValueError):
            BgpRoute(IPv4Prefix.parse("17.0.0.0/8"), (), ("l",))
        with pytest.raises(ValueError):
            BgpRoute(IPv4Prefix.parse("17.0.0.0/8"), (AS_APPLE,), ())


class TestNetflow:
    def test_exact_mode_records_everything(self):
        collector = NetflowCollector(sampling_rate=1)
        src = IPv4Address.parse("17.1.1.1").value
        assert collector.observe_block(0.0, [src], [src], [1000], ["apple-1"]) == 1
        assert collector.sampled_bytes() == 1000
        assert collector.total_offered_bytes == 1000

    def test_a_negative_byte_count_raises_on_every_counter(self):
        """A sign slip upstream must not vanish from Netflow and crash SNMP."""
        src = IPv4Address.parse("17.1.1.1").value
        for collector in (NetflowCollector(sampling_rate=1), NetflowCollector()):
            for size in (-5, 0):
                with pytest.raises(ValueError, match="flow bytes must be positive"):
                    collector.observe_block(0.0, [src], [src], [size], ["apple-1"])
            assert len(collector) == 0
            assert collector.total_offered_bytes == 0
        with pytest.raises(ValueError, match="bytes cannot be negative"):
            SnmpCounters().add_bytes("apple-1", 0.0, -5)

    def test_traffic_going_back_in_time_is_refused(self):
        src = IPv4Address.parse("17.1.1.1")
        collector = NetflowCollector(sampling_rate=1)
        collector.observe_block(300.0, [src.value], [src.value], [10], ["apple-1"])
        collector.observe_block(300.0, [src.value], [src.value], [10], ["apple-2"])
        with pytest.raises(ValueError, match="time order"):
            collector.observe_block(0.0, [src.value], [src.value], [10], ["apple-1"])
        sampled = NetflowCollector(sampling_rate=2, flow_bytes=10)
        sampled.observe_block(300.0, [src.value], [src.value], [1000], ["apple-1"])
        assert len(sampled)
        with pytest.raises(ValueError, match="time order"):
            sampled.observe_block(0.0, [src.value], [src.value], [1000], ["apple-1"])
        with pytest.raises(ValueError, match="time order"):
            collector.absorb([FlowRecord(0.0, src, src, 10, "apple-1")], 10)
        for log in (collector, sampled):
            assert [r.timestamp for r in log.records] == [300.0] * len(log)
        assert collector.total_offered_bytes == 20
        assert sampled.total_offered_bytes == 1000

    @pytest.mark.parametrize(
        "column, value, message",
        [
            ("block_times", array("d", [5.0, 1.0]), "do not strictly increase"),
            ("sizes", array("q", [-7, 0]), "flow bytes must be positive"),
            ("sizes", array("q", [3, 0]), "flow bytes must be positive"),
            ("link_ids", array("H", [0, 9]), "outside its link table"),
            ("block_times", array("f", [1.0, 2.0]), r"block_times is not an array\('d'\)"),
            ("sizes", [3, 4], r"sizes is not an array\('q'\)"),
            ("srcs", array("I", [1]), "differ in length"),
            ("links", ["l0", "l0"], "distinct names"),
            ("links", ("l0",), "distinct names"),
            ("links", ["l0", 7], "distinct names"),
            ("block_times", array("d", [2.0, 2.0]), "do not strictly increase"),
            ("block_ends", array("L", [1, 2]), r"block_ends is not an array\('Q'\)"),
            ("block_times", array("d", [1.0]), "differ in length"),
            ("block_times", array("d", [1.0, math.nan]), "must be finite"),
            ("block_ends", array("Q", [0, 2]), "run ends do not increase"),
            ("block_ends", array("Q", [1, 1]), "run ends do not increase"),
            ("block_ends", array("Q", [1, 3]), "do not end at its row count"),
        ],
    )
    def test_a_restored_log_is_checked(self, column, value, message):
        """A checkpoint or a worker's chunk arrives through unpickling:
        a state that breaks the log's invariants is refused there."""
        log = FlowLog()
        log.append_block(1.0, [1], [2], [3], ["l0"])
        log.append_block(2.0, [4], [5], [6], ["l0"])
        assert pickle.loads(pickle.dumps(log)) == log
        setattr(log, column, value)
        with pytest.raises(ValueError, match=message):
            pickle.loads(pickle.dumps(log))

    def test_a_restored_log_has_six_columns_and_a_link_table(self):
        for state in ((), [array("d")] * 6 + [[]], (array("d"),) * 6):
            with pytest.raises(ValueError, match="six columns and a link table"):
                FlowLog().__setstate__(state)

    def test_drain_hands_over_and_forgets(self):
        collector = NetflowCollector(sampling_rate=1)
        src = IPv4Address.parse("17.1.1.1").value
        collector.observe_block(300.0, [src], [src], [10], ["apple-1"])
        collector.observe_block(600.0, [src], [src], [20], ["apple-2"])
        first = collector.drain()
        assert [r.bytes for r in first] == [10, 20] and len(collector) == 0
        assert len(collector.drain()) == 0  # nothing new: an empty block
        with pytest.raises(ValueError, match="time order"):
            collector.observe_block(300.0, [src], [src], [5], ["apple-1"])
        assert collector.total_offered_bytes == 30
        collector.observe_block(600.0, [src], [src], [5], ["apple-1"])
        second = collector.drain()
        assert second.links == first.links == ["apple-1", "apple-2"]
        whole = FlowLog()
        whole.extend(first)
        whole.extend(second)
        assert [r.timestamp for r in whole] == [300.0, 600.0, 600.0]
        counters = SnmpCounters(bin_seconds=3600.0)
        counters.add_bytes("apple-1", 0.0, 7)
        drained = counters.drain()
        counters.add_bytes("apple-1", 60.0, 3)
        assert drained == {"apple-1": {0.0: 7}}
        assert counters.drain() == {"apple-1": {0.0: 3}} and not counters.drain()

    def test_a_block_is_its_rows_one_by_one(self):
        """Exact or sampled, a tick's block exports what its rows would
        export as one-row blocks."""
        src, dst = IPv4Address.parse("17.1.1.1"), IPv4Address.parse("89.0.0.7")
        rows = [("apple-2", 70_000), ("apple-1", 50_000), ("apple-2", 1 << 20)]
        for sampling_rate in (1, 4):
            by_row, by_block = (
                NetflowCollector(sampling_rate=sampling_rate, flow_bytes=1000)
                for _ in range(2)
            )
            for link_id, size in rows:
                by_row.observe_block(300.0, [src.value], [dst.value], [size], [link_id])
            exported = by_block.observe_block(
                300.0,
                [src.value] * len(rows),
                [dst.value] * len(rows),
                [size for _, size in rows],
                [link_id for link_id, _ in rows],
            )
            assert exported == len(by_row) > 0
            assert by_block.records == by_row.records
            assert by_block.records.links == by_row.records.links == ["apple-2", "apple-1"]
            assert by_block.total_offered_bytes == by_row.total_offered_bytes
            assert by_block.total_offered_bytes == 120_000 + (1 << 20)
            assert by_block.observe_block(300.0, [], [], [], []) == 0

    @pytest.mark.parametrize("bad_row, error", [
        ((1 << 32, 7, 10, "apple-1"), OverflowError),   # src past 32 bits
        ((7, -1, 10, "apple-1"), OverflowError),
        ((7, 7, 0, "apple-1"), ValueError),             # an empty flow
        ((7, 7, 1 << 63, "apple-1"), OverflowError),
        ((7, 7, 1.5, "apple-1"), TypeError),
    ])
    def test_a_block_with_one_bad_row_leaves_no_trace(self, bad_row, error):
        registry = MetricsRegistry()
        with use_registry(registry):
            collector = NetflowCollector(sampling_rate=1)
        collector.observe_block(300.0, [1], [2], [30], ["apple-1"])
        with pytest.raises(error):
            collector.observe_block(300.0, *zip((3, 4, 50, "apple-2"), bad_row))
        with pytest.raises(ValueError, match="time order"):
            collector.observe_block(299.0, [3], [4], [50], ["apple-2"])
        assert collector.records == [
            FlowRecord(300.0, IPv4Address(1), IPv4Address(2), 30, "apple-1")
        ]
        assert collector.total_offered_bytes == 30
        assert registry.get("netflow_offered_bytes_total").value == 30.0
        assert registry.get("netflow_records_total").value == 1.0

    def test_sampling_reduces_records(self):
        collector = NetflowCollector(sampling_rate=10, flow_bytes=1000)
        total = 0
        src = IPv4Address.parse("17.1.1.1").value
        for second in range(200):
            total += collector.observe_block(
                float(second), [src], [src], [100_000], ["apple-1"]
            )
        # 200 * 100 flows, ~1/10 sampled.
        assert 1000 <= total <= 3000

    def test_sampling_statistically_faithful(self):
        collector = NetflowCollector(sampling_rate=10, flow_bytes=1000)
        src = IPv4Address.parse("17.1.1.1").value
        for second in range(300):
            collector.observe_block(float(second), [src], [src], [100_000], ["apple-1"])
        estimated = collector.sampled_bytes() * collector.sampling_rate
        assert estimated == pytest.approx(collector.total_offered_bytes, rel=0.2)

    def test_records_between(self):
        collector = NetflowCollector(sampling_rate=1)
        src = IPv4Address.parse("1.1.1.1").value
        for ts in (0.0, 10.0, 20.0):
            collector.observe_block(ts, [src], [src], [100], ["l"])
        assert len(list(collector.records_between(5.0, 25.0))) == 2

    def test_flow_record_validation(self):
        with pytest.raises(ValueError):
            FlowRecord(0.0, IPv4Address.parse("1.1.1.1"),
                       IPv4Address.parse("2.2.2.2"), 0, "l")

    def test_collector_validation(self):
        with pytest.raises(ValueError):
            NetflowCollector(sampling_rate=0)
        with pytest.raises(ValueError):
            NetflowCollector(flow_bytes=0)


class TestSnmp:
    def test_binning(self):
        snmp = SnmpCounters(bin_seconds=300.0)
        snmp.add_bytes("l", 10.0, 100)
        snmp.add_bytes("l", 299.0, 100)
        snmp.add_bytes("l", 300.0, 100)
        assert snmp.bytes_in_bin("l", 0.0) == 200
        assert snmp.bytes_in_bin("l", 300.0) == 100

    def test_series_sorted(self):
        snmp = SnmpCounters(bin_seconds=100.0)
        snmp.add_bytes("l", 500.0, 1)
        snmp.add_bytes("l", 100.0, 2)
        assert snmp.series("l") == [(100.0, 2), (500.0, 1)]

    def test_utilization_and_saturation(self, isp):
        snmp = SnmpCounters(bin_seconds=1.0)
        capacity = isp.link("transit-1").capacity_bytes(1.0)
        snmp.add_bytes("transit-1", 0.0, int(capacity))
        snmp.add_bytes("transit-2", 0.0, int(capacity * 0.5))
        assert snmp.utilization(isp, "transit-1", 0.0) == pytest.approx(1.0)
        assert snmp.saturated_links(isp, 0.0) == ["transit-1"]

    def test_scale_factor_corrects_sampling(self, isp):
        """The Section 5.3 correction: SNMP-scaled Netflow == ground truth."""
        snmp = SnmpCounters(bin_seconds=300.0)
        collector = NetflowCollector(sampling_rate=10, flow_bytes=1000)
        src = IPv4Address.parse("17.1.1.1")
        truth = 0
        for second in range(0, 300, 5):
            volume = 200_000
            collector.observe_block(float(second), [src.value], [src.value], [volume], ["apple-1"])
            snmp.add_bytes("apple-1", float(second), volume)
            truth += volume
        factor = snmp.scale_factor(collector, "apple-1", 0.0)
        assert factor is not None
        sampled = sum(r.bytes for r in collector.records)
        assert sampled * factor == pytest.approx(truth)

    def test_scale_factor_equals_a_linear_scan_of_the_log(self, isp):
        """``bytes_between`` bisects; the factor is what the full scan gave."""
        snmp = SnmpCounters(bin_seconds=300.0)
        collector = NetflowCollector(sampling_rate=4, flow_bytes=1000)
        sources = [IPv4Address.parse(f"17.1.1.{n}") for n in (1, 2, 3)]
        links = ("apple-1", "akamai-1", "transit-1")
        # Bins 0-2 and 4 carry traffic, bin 3 (900-1200 s) none; flows sit
        # on the bin edges themselves (0, 300, 600, 1200 s).
        for second in [*range(0, 900, 20), *range(1200, 1500, 20)]:
            for index, src in enumerate(sources):
                link = links[(second // 20 + index) % len(links)]
                volume = 20_000 + 1000 * index
                collector.observe_block(float(second), [src.value], [src.value], [volume], [link])
                snmp.add_bytes(link, float(second), volume)
        records = list(collector.records)
        assert len(records) > 100
        seen = 0
        for link in (*links, "transit-2"):
            for bin_start in (0.0, 300.0, 600.0, 900.0, 1200.0, 1500.0):
                scanned = sum(
                    r.bytes for r in records
                    if r.link_id == link and bin_start <= r.timestamp < bin_start + 300.0
                )
                assert collector.bytes_between(link, bin_start, bin_start + 300.0) == scanned
                expected = (
                    snmp.bytes_in_bin(link, bin_start) / scanned if scanned else None
                )
                for inside in (bin_start, bin_start + 299.0):
                    assert snmp.scale_factor(collector, link, inside) == expected
                seen += expected is not None
        assert seen == 12  # three links x four bins with flows; the rest None
        assert snmp.scale_factor(collector, "apple-1", 900.0) is None

    def test_scale_factor_none_without_flows(self, isp):
        snmp = SnmpCounters()
        collector = NetflowCollector()
        assert snmp.scale_factor(collector, "apple-1", 0.0) is None


class TestClassifier:
    def _classifier(self, isp, rib):
        operators = {
            IPv4Address.parse("17.253.0.1"): "Apple",
            IPv4Address.parse("23.192.0.1"): "Akamai",
            IPv4Address.parse("92.122.0.1"): "Akamai",  # hosted cache
        }
        return TrafficClassifier(isp, rib, operators.get)

    def _flow(self, src, link):
        return FlowRecord(
            0.0, IPv4Address.parse(src), IPv4Address.parse("89.0.0.1"), 100, link
        )

    def test_apple_direct_is_neither(self, isp, rib):
        classifier = self._classifier(isp, rib)
        classified = classifier.classify(self._flow("17.253.0.1", "apple-1"))
        assert not classified.is_offload
        assert not classified.is_overflow
        assert classified.operator == "Apple"

    def test_akamai_direct_is_offload_only(self, isp, rib):
        classifier = self._classifier(isp, rib)
        classified = classifier.classify(self._flow("23.192.0.1", "akamai-1"))
        assert classified.is_offload
        assert not classified.is_overflow

    def test_hosted_akamai_via_transit_is_both(self, isp, rib):
        # Section 5.1: "Akamai and Limelight traffic going via Other
        # ASes is both, offload and overflow traffic."
        classifier = self._classifier(isp, rib)
        classified = classifier.classify(self._flow("92.122.0.1", "transit-1"))
        assert classified.is_offload
        assert classified.is_overflow
        assert classified.source_asn == ASN(64512)
        assert classified.handover_asn == AS_TRANSIT

    def test_apple_via_transit_is_overflow_only(self, isp, rib):
        classifier = self._classifier(isp, rib)
        classified = classifier.classify(self._flow("17.253.0.1", "transit-1"))
        assert not classified.is_offload
        assert classified.is_overflow

    def test_unknown_source_is_not_update_traffic(self, isp, rib):
        classifier = self._classifier(isp, rib)
        classified = classifier.classify(self._flow("8.8.8.8", "transit-1"))
        assert classified.operator is None
        assert classified.source_asn is None

    def test_filtered_iterators(self, isp, rib):
        classifier = self._classifier(isp, rib)
        flows = [
            self._flow("17.253.0.1", "apple-1"),
            self._flow("23.192.0.1", "akamai-1"),
            self._flow("92.122.0.1", "transit-1"),
            self._flow("8.8.8.8", "transit-1"),
        ]
        assert len(list(classifier.overflow_traffic(flows))) == 1
        assert len(list(classifier.overflow_traffic(flows, operator="Akamai"))) == 1
        assert len(list(classifier.overflow_traffic(flows, operator="Apple"))) == 0

    def test_per_key_classification_equals_per_flow(self, isp, rib):
        """``classify_all`` attributes once per (src, link); same answers."""
        import random

        rng = random.Random(20170919)
        sources = [
            "17.253.0.1", "17.253.0.2", "23.192.0.1", "92.122.0.1",
            "8.8.8.8", "203.0.113.9",  # the last two: no route, no operator
        ]
        links = ["apple-1", "akamai-1", "akamai-cache", "transit-1", "transit-2"]
        flows = [
            FlowRecord(
                float(rng.randrange(0, 86400)),
                IPv4Address.parse(rng.choice(sources)),
                IPv4Address.parse("89.0.0.1"),
                rng.randrange(1, 10**9),
                rng.choice(links),
            )
            for _ in range(2000)
        ]
        calls = []

        def operator_of(address):
            calls.append(address)
            return {"17": "Apple", "23": "Akamai", "92": "Akamai"}.get(
                str(address).split(".")[0]
            )

        classifier = TrafficClassifier(isp, rib, operator_of)
        bulk = list(classifier.classify_all(flows))
        asked_in_bulk = len(calls)
        assert bulk == [classifier.classify(flow) for flow in flows]
        assert [item.flow for item in bulk] == flows
        assert any(item.source_asn is None for item in bulk)
        assert any(item.is_overflow for item in bulk)
        # One attribution per distinct pair, not one per record.
        assert asked_in_bulk == len({(f.src, f.link_id) for f in flows})
