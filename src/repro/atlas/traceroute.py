"""Simulated traceroute.

The paper ran hourly traceroutes to every server IP identified via DNS
(Section 3.2) to corroborate cache locations and paths.  The simulated
tracer builds an AS-level path — probe AS, optional transit hops, the
destination's AS — with distance-derived RTTs, enough for the analysis
layer to recover AS paths and rough geography.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Optional, Sequence

from ..net.asys import ASN, ASRegistry
from ..net.geo import Coordinates, great_circle_km
from ..net.ipv4 import IPv4Address, IPv4Prefix
from .columnar import TracerouteColumns
from .probe import AtlasProbe
from .results import TracerouteMeasurement

__all__ = ["SimulatedTracer", "TRANSIT_HOP_PREFIX"]

# Synthetic addresses for anonymous transit routers (TEST-NET-3).
TRANSIT_HOP_PREFIX = IPv4Prefix.parse("203.0.113.0/24")

_SPEED_MS_PER_KM = 0.015  # ~2/3 c in fibre, both directions
_BASE_RTT_MS = 1.2
_MAX_TRANSIT_HOPS = 4


@dataclass
class SimulatedTracer:
    """Produces traceroute measurements over a registry-backed topology.

    ``server_coordinates`` maps known cache addresses to their metro, so
    RTTs reflect real distances; unknown destinations get a default
    1500 km path.  ``transit_asn`` attributes mid-path hops (a single
    synthetic transit AS keeps AS-path analysis meaningful without a
    full inter-domain topology).
    """

    registry: ASRegistry
    server_coordinates: dict[IPv4Address, Coordinates]
    transit_asn: Optional[ASN] = None

    def trace(
        self, probe: AtlasProbe, destination: IPv4Address, now: float
    ) -> TracerouteMeasurement:
        """One traceroute from ``probe`` to ``destination``: a one-trace
        :meth:`sweep`."""
        return self.sweep((probe,), (destination.value,), now).measurement(0)

    def sweep(
        self, probes: Sequence[AtlasProbe], destinations: Sequence[int], now: float
    ) -> TracerouteColumns:
        """Trace every destination (address values) from every probe at ``now``.

        One block, probe-major: the traces of the first probe to each
        destination in order, then the next probe's.  Each path is the
        probe's home gateway inside its own AS, one transit hop per
        ~2000 km (at least one, at most four), then the destination.
        What depends on the destination alone (its AS, its metro, its
        transit-hop addresses) is looked up once per sweep, what
        depends on the probe alone once per probe; only the distance
        and the RTTs are per trace.
        """
        transit = 0 if self.transit_asn is None else self.transit_asn.number
        targets = []
        for value in destinations:
            address = IPv4Address(value)
            asn = self.registry.asn_for(address)
            targets.append((
                value,
                0 if asn is None else asn.number,
                self.server_coordinates.get(address),
                tuple(
                    TRANSIT_HOP_PREFIX.host(1 + (value + index) % 250).value
                    for index in range(_MAX_TRANSIT_HOPS)
                ),
            ))
        probe_ids, addrs, asns, rtts = [], [], [], []
        ttls, offsets = [], [0]
        hops = 0
        gateway_rtt = round(_BASE_RTT_MS, 3)
        for probe in probes:
            probe_ids += [probe.probe_id] * len(targets)
            gateway = probe.address.shifted(1).value
            probe_asn = 0 if probe.asn is None else probe.asn.number
            origin = probe.coordinates
            for value, asn, coords, transit_addrs in targets:
                distance_km = (
                    great_circle_km(origin, coords) if coords is not None else 1500.0
                )
                path_rtt = _BASE_RTT_MS + distance_km * _SPEED_MS_PER_KM
                k = min(_MAX_TRANSIT_HOPS, max(1, int(distance_km // 2000) + 1))
                ttls += range(1, k + 3)  # gateway, k transit hops, destination
                addrs.append(gateway)
                addrs += transit_addrs[:k]
                addrs.append(value)
                asns.append(probe_asn)
                asns += (transit,) * k
                asns.append(asn)
                rtts.append(gateway_rtt)
                rtts += [
                    round(_BASE_RTT_MS + path_rtt * ((index + 1) / (k + 1)), 3)
                    for index in range(k)
                ]
                rtts.append(round(path_rtt, 3))
                hops += k + 2
                offsets.append(hops)
        block = TracerouteColumns()
        block.probe_ids = array("q", probe_ids)
        block.times = array("d", [now]) * len(probe_ids)
        block.destinations = array("I", [target[0] for target in targets]) * len(probes)
        block.hop_offsets = array("Q", offsets)
        block.hop_ttls = array("B", ttls)
        block.hop_addrs = array("I", addrs)
        block.hop_asns = array("I", asns)
        block.hop_rtts = array("d", rtts)
        return block
