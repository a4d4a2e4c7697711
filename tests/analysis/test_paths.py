"""Tests for repro.analysis.paths and the traceroute campaign."""

import pytest

from repro.analysis.paths import (
    geolocate_caches,
    geolocation_errors_km,
    summarize_paths,
)
from repro.atlas.campaign import TracerouteCampaign
from repro.atlas.columnar import TracerouteColumns
from repro.atlas.probe import AtlasProbe
from repro.atlas.results import (
    MeasurementStore,
    TracerouteHop,
    TracerouteMeasurement,
)
from repro.atlas.traceroute import SimulatedTracer
from repro.net.asys import ASN, ASRegistry
from repro.net.geo import great_circle_km
from repro.net.ipv4 import IPv4Address
from repro.net.locode import LocodeDatabase
from repro.workload.timeline import MeasurementWindow

DB = LocodeDatabase.builtin()


def make_probe(probe_id, city):
    return AtlasProbe.create(
        probe_id=probe_id,
        address=IPv4Address.parse(f"198.18.0.{probe_id}"),
        asn=ASN(64520 + probe_id),
        location=DB.get(city),
        servers=[],
    )


def columns(traces):
    return TracerouteColumns.from_measurements(traces)


def make_trace(probe_id, destination, rtt, reached=True):
    dest = IPv4Address.parse(destination)
    hops = [
        TracerouteHop(1, IPv4Address.parse("10.0.0.1"), ASN(64520 + probe_id), 1.0),
        TracerouteHop(
            2,
            dest if reached else IPv4Address.parse("203.0.113.9"),
            ASN(714) if reached else None,
            rtt,
        ),
    ]
    return TracerouteMeasurement(
        probe_id=probe_id, timestamp=0.0, destination=dest, hops=tuple(hops)
    )


class TestGeolocation:
    def test_min_rtt_probe_wins(self):
        berlin = make_probe(1, "deber")
        tokyo = make_probe(2, "jptyo")
        traces = [
            make_trace(1, "17.253.0.1", rtt=4.0),  # Berlin probe, close
            make_trace(2, "17.253.0.1", rtt=190.0),  # Tokyo probe, far
        ]
        estimates = geolocate_caches(columns(traces), [berlin, tokyo])
        estimate = estimates[IPv4Address.parse("17.253.0.1")]
        assert estimate.probe_id == 1
        assert estimate.coordinates == berlin.coordinates

    def test_unreached_traces_ignored(self):
        probe = make_probe(1, "deber")
        traces = [make_trace(1, "17.253.0.1", rtt=5.0, reached=False)]
        assert geolocate_caches(columns(traces), [probe]) == {}

    def test_unknown_probe_ignored(self):
        traces = [make_trace(9, "17.253.0.1", rtt=5.0)]
        assert geolocate_caches(columns(traces), []) == {}

    def test_error_km(self):
        probe = make_probe(1, "deber")
        traces = [make_trace(1, "17.253.0.1", rtt=5.0)]
        estimates = geolocate_caches(columns(traces), [probe])
        truth = {IPv4Address.parse("17.253.0.1"): DB.get("defra").coordinates}
        errors = geolocation_errors_km(estimates, truth)
        expected = great_circle_km(
            DB.get("deber").coordinates, DB.get("defra").coordinates
        )
        assert errors == [pytest.approx(expected)]


class TestSummarizePaths:
    def test_summary(self):
        traces = [
            make_trace(1, "17.253.0.1", rtt=5.0),
            make_trace(1, "17.253.0.2", rtt=15.0),
            make_trace(1, "17.253.0.3", rtt=25.0, reached=False),
        ]
        summary = summarize_paths(columns(traces))
        assert summary.trace_count == 3
        assert summary.reached_ratio == pytest.approx(2 / 3)
        assert summary.median_rtt_ms == 15.0
        assert summary.as_path_lengths == {2: 2}
        assert "traceroutes" in summary.render()

    def test_empty(self):
        summary = summarize_paths(columns([]))
        assert summary.trace_count == 0
        assert summary.reached_ratio == 0.0


class TestTracerouteCampaign:
    def test_traces_every_dns_observed_address(self):
        registry = ASRegistry()
        probe = make_probe(1, "deber")
        dns_store = MeasurementStore()
        from repro.atlas.results import DnsMeasurement
        from repro.net.geo import Continent

        dns_store.add_dns(
            DnsMeasurement(
                probe_id=1,
                timestamp=0.0,
                target="appldnld.apple.com",
                probe_asn=probe.asn,
                continent=Continent.EUROPE,
                country="de",
                rcode="NOERROR",
                chain=("appldnld.apple.com",),
                addresses=(
                    IPv4Address.parse("17.253.0.1"),
                    IPv4Address.parse("17.253.0.2"),
                ),
            )
        )
        tracer = SimulatedTracer(registry, {})
        campaign = TracerouteCampaign(
            probes=[probe],
            dns_store=dns_store,
            interval=3600.0,
            window=MeasurementWindow("w", 0.0, 7200.0),
            tracer=tracer.sweep,
        )
        taken = campaign.maybe_run(0.0)
        assert taken == 2
        assert campaign.maybe_run(100.0) == 0  # not due yet
        assert campaign.maybe_run(3600.0) == 2
        destinations = {t.destination for t in campaign.store.traceroutes}
        assert len(destinations) == 2

    def test_respects_target_cap(self):
        registry = ASRegistry()
        probe = make_probe(1, "deber")
        dns_store = MeasurementStore()
        from repro.atlas.results import DnsMeasurement
        from repro.net.geo import Continent

        dns_store.add_dns(
            DnsMeasurement(
                probe_id=1,
                timestamp=0.0,
                target="t",
                probe_asn=probe.asn,
                continent=Continent.EUROPE,
                country="de",
                rcode="NOERROR",
                chain=("t",),
                addresses=tuple(
                    IPv4Address.parse(f"17.253.0.{i}") for i in range(1, 11)
                ),
            )
        )
        campaign = TracerouteCampaign(
            probes=[probe],
            dns_store=dns_store,
            interval=3600.0,
            window=MeasurementWindow("w", 0.0, 7200.0),
            tracer=SimulatedTracer(registry, {}).sweep,
            max_targets_per_tick=3,
        )
        assert campaign.maybe_run(0.0) == 3


class TestScenarioTraceroutes:
    def test_event_run_collected_traces(self, event_run):
        scenario, _, _ = event_run
        traces = scenario.traceroute_campaign.store.traceroute_columns
        assert len(traces)
        summary = summarize_paths(traces)
        assert summary.reached_ratio == 1.0

    def test_geolocation_is_plausible(self, event_run):
        scenario, _, _ = event_run
        traces = scenario.traceroute_campaign.store.traceroute_columns
        estimates = geolocate_caches(traces, scenario.global_probes)
        truth = {}
        for deployment in scenario.estate.deployments.values():
            for placed in deployment.servers:
                truth[placed.server.address] = placed.location.coordinates
        errors = geolocation_errors_km(estimates, truth)
        assert errors
        median = errors[len(errors) // 2]
        assert median < 2000.0  # min-RTT bounds caches to the right area
