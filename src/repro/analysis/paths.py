"""Traceroute analysis: paths and cache geolocation.

The paper ran hourly traceroutes to every server IP identified via DNS
(Section 3.2) to corroborate the cache locations derived from the
naming scheme.  This module recovers locations by the classic
minimum-RTT constraint: among all probes that traced a cache, the one
with the lowest RTT bounds the cache to its own vicinity (light in
fibre travels ~100 km per millisecond of RTT).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from ..atlas.probe import AtlasProbe
from ..atlas.columnar import TracerouteColumns
from ..net.geo import Coordinates, great_circle_km
from ..net.ipv4 import IPv4Address

__all__ = ["GeolocationEstimate", "geolocate_caches", "PathSummary", "summarize_paths"]


@dataclass(frozen=True)
class GeolocationEstimate:
    """A cache address located at the min-RTT probe's metro."""

    address: IPv4Address
    coordinates: Coordinates
    min_rtt_ms: float
    probe_id: int

    def error_km(self, truth: Coordinates) -> float:
        """Distance between the estimate and the true metro."""
        return great_circle_km(self.coordinates, truth)


def geolocate_caches(
    traceroutes: TracerouteColumns,
    probes: Iterable[AtlasProbe],
) -> dict[IPv4Address, GeolocationEstimate]:
    """Min-RTT geolocation of every traced destination.

    Reads the columns (``store.traceroute_columns``; a caller holding
    :class:`TracerouteMeasurement` values builds a block with
    :meth:`TracerouteColumns.from_measurements`).  A trace counts when
    its last hop is its destination and its probe is known; on equal
    RTTs the earlier trace keeps the estimate.
    """
    probe_index = {probe.probe_id: probe for probe in probes}
    offsets = traceroutes.hop_offsets
    hop_addrs, hop_rtts = traceroutes.hop_addrs, traceroutes.hop_rtts
    best: dict[int, tuple] = {}  # destination value -> (rtt, probe)
    for row, (probe_id, destination) in enumerate(
        zip(traceroutes.probe_ids, traceroutes.destinations)
    ):
        last = offsets[row + 1] - 1
        if last < offsets[row] or hop_addrs[last] != destination:
            continue
        probe = probe_index.get(probe_id)
        if probe is None:
            continue
        rtt = hop_rtts[last]
        current = best.get(destination)
        if current is None or rtt < current[0]:
            best[destination] = (rtt, probe)
    estimates = {}
    for value, (rtt, probe) in best.items():
        address = IPv4Address(value)
        estimates[address] = GeolocationEstimate(
            address=address,
            coordinates=probe.coordinates,
            min_rtt_ms=rtt,
            probe_id=probe.probe_id,
        )
    return estimates


@dataclass(frozen=True)
class PathSummary:
    """Aggregate facts about a traceroute dataset."""

    trace_count: int
    reached_ratio: float
    median_rtt_ms: float
    as_path_lengths: dict  # length -> count

    def render(self) -> str:
        """Text rendering for reports."""
        lengths = ", ".join(
            f"{length} ASes: {count}"
            for length, count in sorted(self.as_path_lengths.items())
        )
        return (
            f"{self.trace_count} traceroutes, "
            f"{self.reached_ratio * 100:.1f}% reached, "
            f"median RTT {self.median_rtt_ms:.1f} ms; paths: {lengths}"
        )


def summarize_paths(traceroutes: TracerouteColumns) -> PathSummary:
    """Reach, RTT and AS-path-length statistics, off the columns.

    A trace is reached when its last hop is its destination; its AS
    path is its hops' ASNs with hops that have none skipped and
    consecutive repeats collapsed (:attr:`TracerouteMeasurement.as_path`).
    """
    count = len(traceroutes)
    if not count:
        return PathSummary(0, 0.0, 0.0, {})
    offsets = traceroutes.hop_offsets
    hop_addrs, hop_asns = traceroutes.hop_addrs, traceroutes.hop_asns
    hop_rtts = traceroutes.hop_rtts
    rtts = []
    lengths: dict[int, int] = defaultdict(int)
    for row, destination in enumerate(traceroutes.destinations):
        lo, hi = offsets[row], offsets[row + 1]
        if hi == lo or hop_addrs[hi - 1] != destination:
            continue
        rtts.append(hop_rtts[hi - 1])
        length, previous = 0, 0  # 0: no ASN
        for asn in hop_asns[lo:hi]:
            if asn and asn != previous:
                length += 1
                previous = asn
        lengths[length] += 1
    rtts.sort()
    return PathSummary(
        trace_count=count,
        reached_ratio=len(rtts) / count,
        median_rtt_ms=rtts[len(rtts) // 2] if rtts else 0.0,
        as_path_lengths=dict(lengths),
    )


def geolocation_errors_km(
    estimates: Mapping[IPv4Address, GeolocationEstimate],
    truth: Mapping[IPv4Address, Coordinates],
) -> list[float]:
    """Per-cache estimation error against ground-truth metros."""
    errors = []
    for address, estimate in estimates.items():
        true_coords = truth.get(address)
        if true_coords is not None:
            errors.append(estimate.error_km(true_coords))
    return sorted(errors)
