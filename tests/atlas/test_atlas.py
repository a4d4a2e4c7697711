"""Tests for the RIPE Atlas substrate (probes, placement, campaigns)."""

import pytest

from repro.atlas.campaign import DnsCampaign
from repro.atlas.placement import (
    ATLAS_CONTINENT_WEIGHTS,
    place_global_probes,
    place_isp_probes,
)
from repro.atlas.probe import AtlasProbe
from repro.atlas.results import DnsMeasurement, MeasurementStore
from repro.atlas.traceroute import SimulatedTracer
from repro.dns.policies import CnamePolicy, StaticPolicy
from repro.dns.records import ARecord
from repro.dns.zone import AuthoritativeServer, Zone
from repro.net.asys import ASN, ASRegistry
from repro.net.geo import Continent, Coordinates
from repro.net.ipv4 import IPv4Address, IPv4Prefix
from repro.net.locode import LocodeDatabase
from repro.workload.timeline import MeasurementWindow

DB = LocodeDatabase.builtin()


@pytest.fixture
def tiny_estate():
    zone = Zone("apple.com")
    zone.bind("appldnld.apple.com", CnamePolicy("dl.apple.com", ttl=60))
    zone.bind(
        "dl.apple.com",
        StaticPolicy((ARecord("dl.apple.com", IPv4Address.parse("17.253.0.1"), 20),)),
    )
    return [AuthoritativeServer("Apple", [zone])]


def make_probe(servers, probe_id=1):
    return AtlasProbe.create(
        probe_id=probe_id,
        address=IPv4Address.parse("198.18.0.5"),
        asn=ASN(64520),
        location=DB.get("deber"),
        servers=servers,
    )


class TestAtlasProbe:
    def test_context_carries_placement(self, tiny_estate):
        probe = make_probe(tiny_estate)
        context = probe.context(now=42.0)
        assert context.country == "de"
        assert context.continent is Continent.EUROPE
        assert context.now == 42.0

    def test_measure_dns_success(self, tiny_estate):
        probe = make_probe(tiny_estate)
        result = probe.measure_dns("appldnld.apple.com", now=0.0)
        assert result.succeeded
        assert result.chain == ("appldnld.apple.com", "dl.apple.com")
        assert str(result.addresses[0]) == "17.253.0.1"
        assert result.probe_id == 1

    def test_measure_dns_failure_is_recorded_not_raised(self):
        probe = make_probe([])  # no servers at all
        result = probe.measure_dns("appldnld.apple.com", now=0.0)
        assert not result.succeeded
        assert result.rcode == "SERVFAIL"


class TestPlacement:
    def test_global_count_and_determinism(self, tiny_estate):
        a = place_global_probes(tiny_estate, count=50)
        b = place_global_probes(tiny_estate, count=50)
        assert len(a) == 50
        assert [p.location.code for p in a] == [p.location.code for p in b]
        assert [str(p.address) for p in a] == [str(p.address) for p in b]

    def test_global_unique_ids_and_addresses(self, tiny_estate):
        probes = place_global_probes(tiny_estate, count=100)
        assert len({p.probe_id for p in probes}) == 100
        assert len({p.address for p in probes}) == 100

    def test_global_skew_is_europe_heavy(self, tiny_estate):
        probes = place_global_probes(tiny_estate, count=400)
        european = sum(1 for p in probes if p.continent is Continent.EUROPE)
        assert european / len(probes) == pytest.approx(
            ATLAS_CONTINENT_WEIGHTS[Continent.EUROPE], abs=0.1
        )

    def test_isp_probes_share_asn_and_prefix(self, tiny_estate):
        prefix = IPv4Prefix.parse("89.0.0.0/12")
        probes = place_isp_probes(
            tiny_estate, isp_asn=ASN(64496), customer_prefix=prefix, count=40
        )
        assert len(probes) == 40
        assert all(p.asn == ASN(64496) for p in probes)
        assert all(prefix.contains(p.address) for p in probes)
        assert all(p.country == "de" for p in probes)

    def test_isp_prefix_too_small_rejected(self, tiny_estate):
        with pytest.raises(ValueError):
            place_isp_probes(
                tiny_estate,
                isp_asn=ASN(64496),
                customer_prefix=IPv4Prefix.parse("192.0.2.0/28"),
                count=40,
            )

    def test_zero_count_rejected(self, tiny_estate):
        with pytest.raises(ValueError):
            place_global_probes(tiny_estate, count=0)


class TestMeasurementStore:
    def _measurement(self, ts, addresses=()):
        return DnsMeasurement(
            probe_id=1,
            timestamp=ts,
            target="appldnld.apple.com",
            probe_asn=ASN(64520),
            continent=Continent.EUROPE,
            country="de",
            rcode="NOERROR",
            chain=("appldnld.apple.com",),
            addresses=tuple(IPv4Address.parse(a) for a in addresses),
        )

    def test_time_order_enforced(self):
        store = MeasurementStore()
        store.add_dns(self._measurement(10.0))
        with pytest.raises(ValueError):
            store.add_dns(self._measurement(5.0))

    def test_dns_between(self):
        store = MeasurementStore()
        for ts in (0.0, 10.0, 20.0, 30.0):
            store.add_dns(self._measurement(ts))
        assert len(list(store.dns_between(10.0, 30.0))) == 2

    def test_unique_addresses(self):
        store = MeasurementStore()
        store.add_dns(self._measurement(0.0, ["1.1.1.1", "2.2.2.2"]))
        store.add_dns(self._measurement(1.0, ["1.1.1.1"]))
        assert len(store.unique_addresses()) == 2


class TestDnsCampaign:
    def test_ticks_at_interval(self, tiny_estate):
        probes = [make_probe(tiny_estate, probe_id=i) for i in range(3)]
        campaign = DnsCampaign(
            probes=probes,
            target="appldnld.apple.com",
            interval=300.0,
            window=MeasurementWindow("w", 0.0, 1200.0),
        )
        taken = 0
        now = 0.0
        while now < 1500.0:
            taken += campaign.maybe_run(now)
            now += 100.0
        # Ticks at 0, 300, 600, 900 (1200 is outside the window).
        assert taken == 4 * 3
        assert len(campaign.store.dns) == 12

    def test_no_ticks_outside_window(self, tiny_estate):
        campaign = DnsCampaign(
            probes=[make_probe(tiny_estate)],
            target="appldnld.apple.com",
            interval=300.0,
            window=MeasurementWindow("w", 1000.0, 2000.0),
        )
        assert campaign.maybe_run(0.0) == 0
        assert campaign.maybe_run(1000.0) == 1

    def _mixed_probes(self):
        """One estate whose answer depends on the probe's country.

        Berlin resolves to an address, Paris dead-ends (NXDOMAIN) and
        London is sent to a name nobody serves (SERVFAIL).
        """
        from repro.dns.policies import CountrySplitPolicy

        zone = Zone("apple.com")
        zone.bind(
            "appldnld.apple.com",
            CountrySplitPolicy(
                default="dl.apple.com",
                overrides={"fr": "gone.apple.com", "gb": "host.nowhere.example"},
                ttl=60,
            ),
        )
        zone.bind(
            "dl.apple.com",
            StaticPolicy((ARecord("dl.apple.com", IPv4Address.parse("17.253.0.1"), 20),)),
        )
        servers = [AuthoritativeServer("Apple", [zone])]
        return [
            AtlasProbe.create(
                probe_id=probe_id,
                address=IPv4Address.parse(f"198.18.0.{probe_id}"),
                asn=ASN(64520 + probe_id),
                location=DB.get(metro),
                servers=servers,
            )
            for probe_id, metro in enumerate(("deber", "frpar", "uklon", "deber"), 1)
        ]

    def test_tick_rows_equal_the_per_probe_records(self):
        """A tick is one block; same rows and bytes as the object path."""
        from repro.atlas.columnar import DnsColumns

        window = MeasurementWindow("w", 0.0, 10_000.0)
        campaign = DnsCampaign(
            probes=self._mixed_probes(),
            target="appldnld.apple.com",
            interval=30.0,
            window=window,
        )
        sliced = DnsCampaign(
            probes=self._mixed_probes(),
            target="appldnld.apple.com",
            interval=30.0,
            window=window,
        )
        reference = self._mixed_probes()
        expected = []
        # 0/30 s: inside the 60 s CNAME TTL (cached hop); 90 s: past it.
        for now in (0.0, 30.0, 90.0):
            assert campaign.maybe_run(now) == 4
            # A slice in another order: its fixed columns follow it.
            block = sliced.measure_slice(now, indices=(2, 0, 3, 1))
            tick = [
                probe.measure_dns("appldnld.apple.com", now) for probe in reference
            ]
            assert block.to_bytes() == DnsColumns.from_measurements(
                [tick[2], tick[0], tick[3], tick[1]]
            ).to_bytes()
            expected += tick
        assert {m.rcode for m in expected} == {"NOERROR", "NXDOMAIN", "SERVFAIL"}
        assert list(campaign.store.dns) == expected
        assert (
            campaign.store.dump_state()["open"]
            == DnsColumns.from_measurements(expected).to_bytes()
        )
        assert campaign.store.unique_addresses() == {IPv4Address.parse("17.253.0.1")}

    def test_tick_into_a_store_still_enforces_time_order(self, tiny_estate):
        window = MeasurementWindow("w", 0.0, 10_000.0)
        first = DnsCampaign(
            probes=[make_probe(tiny_estate)],
            target="appldnld.apple.com",
            interval=300.0,
            window=window,
        )
        assert first.maybe_run(600.0) == 1
        late = DnsCampaign(
            probes=[make_probe(tiny_estate, probe_id=2)],
            target="appldnld.apple.com",
            interval=300.0,
            window=window,
            store=first.store,
        )
        with pytest.raises(ValueError, match="time order"):
            late.maybe_run(300.0)
        assert first.store.dns_count == 1

    def test_tick_seals_segments_like_object_appends(self, tiny_estate):
        probes = [make_probe(tiny_estate, probe_id=i) for i in range(3)]
        campaign = DnsCampaign(
            probes=probes,
            target="appldnld.apple.com",
            interval=300.0,
            window=MeasurementWindow("w", 0.0, 10_000.0),
            store=MeasurementStore(segment_rows=4),
        )
        for tick in range(4):
            campaign.maybe_run(tick * 300.0)
        assert campaign.store.dns_count == 12
        assert campaign.store.segment_count == 3

    def test_validation(self, tiny_estate):
        with pytest.raises(ValueError):
            DnsCampaign(
                probes=[],
                target="x.example",
                interval=300.0,
                window=MeasurementWindow("w", 0.0, 10.0),
            )
        with pytest.raises(ValueError):
            DnsCampaign(
                probes=[make_probe(tiny_estate)],
                target="x.example",
                interval=0.0,
                window=MeasurementWindow("w", 0.0, 10.0),
            )


class TestSimulatedTracer:
    def test_trace_reaches_destination(self, tiny_estate):
        registry = ASRegistry()
        registry.create(ASN(714), "Apple", [IPv4Prefix.parse("17.0.0.0/8")])
        probe = make_probe(tiny_estate)
        destination = IPv4Address.parse("17.253.0.1")
        tracer = SimulatedTracer(
            registry,
            {destination: DB.get("defra").coordinates},
            transit_asn=ASN(65001),
        )
        trace = tracer.trace(probe, destination, now=0.0)
        assert trace.reached
        assert trace.hops[0].asn == probe.asn
        assert trace.hops[-1].asn == ASN(714)
        assert trace.as_path[0] == probe.asn
        assert trace.as_path[-1] == ASN(714)

    def test_rtt_monotone_along_path(self, tiny_estate):
        registry = ASRegistry()
        probe = make_probe(tiny_estate)
        destination = IPv4Address.parse("17.253.0.1")
        tracer = SimulatedTracer(registry, {})
        trace = tracer.trace(probe, destination, now=0.0)
        rtts = [hop.rtt_ms for hop in trace.hops]
        assert rtts == sorted(rtts)

    def test_nearby_destination_has_low_rtt(self, tiny_estate):
        registry = ASRegistry()
        probe = make_probe(tiny_estate)  # Berlin
        destination = IPv4Address.parse("17.253.0.1")
        tracer = SimulatedTracer(
            registry, {destination: DB.get("deber").coordinates}
        )
        trace = tracer.trace(probe, destination, now=0.0)
        assert trace.hops[-1].rtt_ms < 5.0
