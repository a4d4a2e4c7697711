"""Traceroutes are columns: a block ≡ the objects it was built from.

``MeasurementStore.add_traceroute_block`` is the store's one traceroute
append path and ``add_traceroute`` wraps one trace of it, so the oracle
here is the list of :class:`TracerouteMeasurement` values appended.
Traces carry 0–8 hops, hops without an AS, RTTs of any non-NaN float
(NaN is never equal to itself, so no record holding one is), and sweeps
share timestamps.  The path analyses are held to the per-object code
they replaced, kept below as the reference, and so is a tracer sweep to
the per-trace tracer.
"""

from collections import defaultdict
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.paths import (
    GeolocationEstimate,
    PathSummary,
    geolocate_caches,
    summarize_paths,
)
from repro.atlas.columnar import TracerouteColumns
from repro.atlas.probe import AtlasProbe
from repro.atlas.results import (
    MeasurementStore,
    TracerouteHop,
    TracerouteMeasurement,
)
from repro.atlas.traceroute import TRANSIT_HOP_PREFIX, SimulatedTracer
from repro.net.asys import ASN, ASRegistry
from repro.net.geo import great_circle_km
from repro.net.ipv4 import IPv4Address, IPv4Prefix
from repro.net.locode import LocodeDatabase

_VALUES = st.sampled_from((1, 2, 301858817)) | st.integers(0, 2**32 - 1)
_ASNS = st.none() | st.sampled_from((714, 3320, 64500)).map(ASN) | st.integers(
    1, 2**32 - 1
).map(ASN)
_HOP = st.builds(
    TracerouteHop,
    ttl=st.integers(0, 255),
    address=_VALUES.map(IPv4Address),
    asn=_ASNS,
    rtt_ms=st.floats(allow_nan=False),
)


@st.composite
def _trace(draw, timestamp):
    destination = IPv4Address(draw(_VALUES))
    hops = draw(st.lists(_HOP, max_size=8))
    if hops and draw(st.booleans()):  # reached: the last hop answered
        hops[-1] = replace(hops[-1], address=destination)
    return TracerouteMeasurement(
        probe_id=draw(st.integers(0, 7) | st.integers(-(2**63), 2**63 - 1)),
        timestamp=timestamp,
        destination=destination,
        hops=tuple(hops),
    )


@st.composite
def _sweeps(draw, max_sweeps=5, max_traces=12):
    """Time-ordered sweeps: mostly one timestamp per sweep, sometimes
    rising inside one, sometimes equal to the last sweep's."""
    now = 0.0
    sweeps = []
    for _ in range(draw(st.integers(0, max_sweeps))):
        now += draw(st.sampled_from((0.0, 3600.0, 21600.0)))
        traces = []
        for _ in range(draw(st.integers(0, max_traces))):
            now += draw(st.sampled_from((0.0, 0.0, 0.0, 0.5)))
            traces.append(draw(_trace(now)))
        sweeps.append(traces)
    return sweeps


def _store(name="trace-store"):
    return MeasurementStore(name=name)


def _by_blocks(sweeps):
    store = _store()
    for traces in sweeps:
        store.add_traceroute_block(TracerouteColumns.from_measurements(traces))
    return store


@settings(max_examples=80, deadline=None)
@given(sweeps=_sweeps(), data=st.data())
def test_the_view_returns_what_was_appended(sweeps, data):
    appended = [trace for traces in sweeps for trace in traces]
    by_block = _by_blocks(sweeps)
    by_trace = _store()
    for trace in appended:
        by_trace.add_traceroute(trace)
    view = by_block.traceroutes
    assert list(view) == appended
    assert view == appended and by_trace.traceroutes == view
    assert len(view) == by_block.traceroute_count == len(appended)
    assert by_block.dump_state() == by_trace.dump_state()
    if appended:
        index = data.draw(st.integers(-len(appended), len(appended) - 1))
        assert view[index] == appended[index]
        lo, hi = sorted(data.draw(st.tuples(st.integers(0, 20), st.integers(0, 20))))
        assert view[lo:hi] == appended[lo:hi]
    with pytest.raises(IndexError):
        view[len(appended)]


@settings(max_examples=40, deadline=None)
@given(sweeps=_sweeps(max_sweeps=3), unordered=st.booleans(), data=st.data())
def test_an_out_of_order_append_changes_nothing(sweeps, unordered, data):
    store = _by_blocks(sweeps)
    last = max((t.timestamp for traces in sweeps for t in traces), default=None)
    assume(unordered or last is not None)
    if unordered:
        base = 0.0 if last is None else last
        times = [base + 5.0] * 3 + [base + 1.0]  # goes back inside itself
    else:
        times = [last - 1.0] * 3  # starts before the store's last trace
    block = TracerouteColumns.from_measurements([data.draw(_trace(ts)) for ts in times])
    before = store.dump_state()
    with pytest.raises(ValueError, match="time order"):
        store.add_traceroute_block(block)
    if not unordered:
        with pytest.raises(ValueError, match="time order"):
            store.add_traceroute(block.measurement(0))
    assert store.dump_state() == before


# ----- the per-object reference the path analyses are held to ----------


def reference_geolocate(traceroutes, probes):
    probe_index = {probe.probe_id: probe for probe in probes}
    best = {}
    for trace in traceroutes:
        if not trace.reached or not trace.hops:
            continue
        probe = probe_index.get(trace.probe_id)
        if probe is None:
            continue
        rtt = trace.hops[-1].rtt_ms
        current = best.get(trace.destination)
        if current is None or rtt < current.min_rtt_ms:
            best[trace.destination] = GeolocationEstimate(
                address=trace.destination,
                coordinates=probe.coordinates,
                min_rtt_ms=rtt,
                probe_id=probe.probe_id,
            )
    return best


def reference_summarize(traceroutes):
    traces = list(traceroutes)
    if not traces:
        return PathSummary(0, 0.0, 0.0, {})
    reached = [trace for trace in traces if trace.reached]
    rtts = sorted(trace.hops[-1].rtt_ms for trace in reached if trace.hops)
    lengths = defaultdict(int)
    for trace in reached:
        lengths[len(trace.as_path)] += 1
    return PathSummary(
        trace_count=len(traces),
        reached_ratio=len(reached) / len(traces),
        median_rtt_ms=rtts[len(rtts) // 2] if rtts else 0.0,
        as_path_lengths=dict(lengths),
    )


_DB = LocodeDatabase.builtin()
_PROBES = [
    AtlasProbe.create(
        probe_id=probe_id,
        address=IPv4Address.parse(f"198.18.0.{probe_id + 1}"),
        asn=ASN(64520 + probe_id),
        location=_DB.get(city),
        servers=[],
    )
    for probe_id, city in enumerate(("deber", "jptyo", "usnyc", "uklon", "defra", "fihel"))
]


@settings(max_examples=80, deadline=None)
@given(
    sweeps=_sweeps(max_traces=16),
    known=st.sets(st.integers(0, len(_PROBES) - 1)),
)
def test_path_analyses_on_columns_equal_the_per_object_reference(sweeps, known):
    traces = [trace for traces in sweeps for trace in traces]
    probes = [_PROBES[index] for index in sorted(known)]
    columns = _by_blocks(sweeps).traceroute_columns
    estimates = geolocate_caches(columns, probes)
    expected = reference_geolocate(traces, probes)
    assert list(estimates.items()) == list(expected.items())
    assert summarize_paths(columns) == reference_summarize(traces)


# ----------------------------------------------------------------------
# The sweep: one block per tick, against the per-trace tracer it replaced
# ----------------------------------------------------------------------


def reference_trace(registry, server_coordinates, transit_asn, probe, destination, now):
    """One traceroute as the per-trace tracer built it, hop object by hop."""
    destination_asn = registry.asn_for(destination)
    coords = server_coordinates.get(destination)
    distance_km = (
        great_circle_km(probe.coordinates, coords) if coords is not None else 1500.0
    )
    path_rtt = 1.2 + distance_km * 0.015
    hops = [TracerouteHop(1, probe.address.shifted(1), probe.asn, round(1.2, 3))]
    transit_hops = min(4, max(1, int(distance_km // 2000) + 1))
    for index in range(transit_hops):
        fraction = (index + 1) / (transit_hops + 1)
        hops.append(
            TracerouteHop(
                2 + index,
                TRANSIT_HOP_PREFIX.host(1 + (destination.value + index) % 250),
                transit_asn,
                round(1.2 + path_rtt * fraction, 3),
            )
        )
    hops.append(
        TracerouteHop(2 + transit_hops, destination, destination_asn, round(path_rtt, 3))
    )
    return TracerouteMeasurement(probe.probe_id, now, destination, tuple(hops))


# From Berlin these sit at 0, 0.4, 1.9, 4.6, 6.4, 8.9, 16.1 thousand km,
# so paths cross every 2000 km step of the transit-hop count and its cap.
_METROS = ("deber", "defra", "esmad", "aedxb", "usnyc", "jptyo", "ausyd")
# Under the registry's 17/8 (AS 714) or under no AS at all; the last
# two wrap the transit-hop address round its 250 hosts.
_DESTINATIONS = (
    0x11FD0001, 0x11FD0002, 0x11FD00F9, 0x17C00001, 0xC6336409, 0xFFFFFFFE, 249,
)


@settings(max_examples=120, deadline=None)
@given(
    probes=st.lists(st.sampled_from(_PROBES), max_size=4),
    destinations=st.lists(st.sampled_from(_DESTINATIONS), max_size=6),
    # Destination -> metro; a destination left out is at the 1500 km default.
    placed=st.dictionaries(st.sampled_from(_DESTINATIONS), st.sampled_from(_METROS)),
    transit=st.sampled_from((None, ASN(65001))),
    now=st.sampled_from((0.0, 3600.0, 1e9 + 0.5)),
)
def test_a_sweep_equals_the_traces_one_by_one(probes, destinations, placed, transit, now):
    registry = ASRegistry()
    registry.create(ASN(714), "Apple", [IPv4Prefix.parse("17.0.0.0/8")])
    coordinates = {
        IPv4Address(value): _DB.get(metro).coordinates for value, metro in placed.items()
    }
    tracer = SimulatedTracer(registry, coordinates, transit_asn=transit)
    sweep = tracer.sweep(probes, destinations, now)
    expected = TracerouteColumns.from_measurements(
        reference_trace(registry, coordinates, transit, probe, IPv4Address(value), now)
        for probe in probes
        for value in destinations
    )
    for name in ("probe_ids", "times", "destinations", "hop_offsets",
                 "hop_ttls", "hop_addrs", "hop_asns", "hop_rtts"):
        assert getattr(sweep, name) == getattr(expected, name), name
        assert getattr(sweep, name).typecode == getattr(expected, name).typecode
    for probe in probes[:1]:
        for value in destinations[:1]:
            assert tracer.trace(probe, IPv4Address(value), now) == reference_trace(
                registry, coordinates, transit, probe, IPv4Address(value), now
            )
