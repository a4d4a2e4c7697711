"""CDN deployments: server fleets, regional pools and load-driven exposure.

A :class:`CdnDeployment` is one operator's delivery estate as seen from
DNS: a set of delivery addresses grouped by mapping region, of which a
load-dependent subset is *exposed* (handed out in answers) at any time.

The exposure mechanism reproduces the paper's central observation about
unique-IP counts (Figures 4 and 5): when the iOS 11 flash crowd hit,
Limelight and Akamai raised the number of distinct cache IPs visible to
probes — Akamai taking about six hours to reach its load-dependent peak
— while Apple's own IP count stayed flat.  :class:`ExposureController`
models that as a first-order lag from offered demand to active servers.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Optional

from ..dns.query import QueryContext
from ..net.asys import ASN
from ..net.geo import MappingRegion, great_circle_km
from ..net.ipv4 import IPv4Address
from ..net.locode import Location
from ..obs import get_registry
from .server import CacheServer

__all__ = ["ExposureController", "PlacedServer", "CdnDeployment"]


@dataclass
class ExposureController:
    """First-order-lag mapping from offered demand to active server count.

    ``tau_seconds`` is the ramp time constant (the paper observed ~6 h
    for Akamai's EU expansion); ``release_tau_seconds`` governs how fast
    capacity is withdrawn once demand falls — operators release
    conservatively, which is why Limelight kept the AS-D caches in
    rotation for about three days (Section 5.4); ``headroom`` is the
    over-provisioning factor kept above smoothed demand;
    ``min_servers`` is the baseline kept active regardless of load.
    """

    per_server_gbps: float
    min_servers: int = 1
    headroom: float = 1.3
    tau_seconds: float = 3600.0
    release_tau_seconds: Optional[float] = None  # defaults to tau_seconds

    def __post_init__(self) -> None:
        if self.per_server_gbps <= 0:
            raise ValueError("per_server_gbps must be positive")
        if self.min_servers < 0:
            raise ValueError("min_servers must be >= 0")
        if self.headroom < 1.0:
            raise ValueError("headroom must be >= 1.0")
        if self.tau_seconds <= 0:
            raise ValueError("tau_seconds must be positive")
        if self.release_tau_seconds is not None and self.release_tau_seconds <= 0:
            raise ValueError("release_tau_seconds must be positive")
        self._smoothed_gbps = 0.0
        self._last_update: Optional[float] = None
        # The server count smoothed demand asks for, before clipping to a
        # pool: recomputed when the demand state changes, not per answer
        # (a campaign tick asks ``active_count`` once per client).
        self._wanted = 0

    def offer(self, now: float, demand_gbps: float) -> None:
        """Feed the demand observed at ``now`` into the lag filter."""
        if demand_gbps < 0:
            raise ValueError("demand cannot be negative")
        if self._last_update is None:
            self._smoothed_gbps = demand_gbps if self.tau_seconds == 0 else 0.0
        else:
            dt = max(0.0, now - self._last_update)
            if demand_gbps >= self._smoothed_gbps:
                tau = self.tau_seconds
            else:
                tau = (
                    self.release_tau_seconds
                    if self.release_tau_seconds is not None
                    else self.tau_seconds
                )
            alpha = 1.0 - math.exp(-dt / tau)
            self._smoothed_gbps += (demand_gbps - self._smoothed_gbps) * alpha
        self._last_update = now
        self._wanted = math.ceil(self._smoothed_gbps * self.headroom / self.per_server_gbps)

    def active_count(self, pool_size: int) -> int:
        """How many of ``pool_size`` servers to expose right now."""
        return max(min(self.min_servers, pool_size), min(self._wanted, pool_size))

    def reset(self) -> None:
        """Forget all demand history."""
        self._smoothed_gbps = 0.0
        self._last_update = None
        self._wanted = 0


@dataclass(frozen=True)
class PlacedServer:
    """A delivery server plus the metro it is deployed in."""

    server: CacheServer
    location: Location


class _VantagePool:
    """One vantage's ranking and the pool it last answered with."""

    __slots__ = ("positions", "values", "size", "controller", "count", "active", "pool")

    def __init__(
        self, positions: array, values: array, controller: Optional[ExposureController]
    ) -> None:
        self.positions = positions  # ranking position of each placement, by exposure index
        self.values = values  # address value of each placement, nearest first
        self.size = len(positions)  # the region's placement count
        self.controller = controller  # the region's exposure, None = all exposed
        self.count = 0  # the active count ``active`` and ``pool`` are for
        self.active = array("H")  # ranking positions of the active set, ascending
        self.pool = array("I")  # address values at ``active``'s first pool_limit


class CdnDeployment:
    """One CDN operator's delivery fleet, grouped by mapping region.

    ``exposure_factory`` builds a per-region :class:`ExposureController`;
    passing ``None`` makes the whole fleet always exposed, which models
    Apple's own CDN (its observed IP count did not react to the event).
    """

    def __init__(
        self,
        operator: str,
        asn: ASN,
        exposure_factory: Optional[Callable[[], ExposureController]] = None,
        pool_limit: int = 0,
    ) -> None:
        self.operator = operator
        self.asn = asn
        self._servers: list[PlacedServer] = []
        self._by_address: dict[IPv4Address, PlacedServer] = {}
        self._by_region: dict[MappingRegion, list[PlacedServer]] = {
            region: [] for region in MappingRegion
        }
        self._exposure_factory = exposure_factory
        self._exposure: dict[MappingRegion, ExposureController] = {}
        self.pool_limit = pool_limit  # max addresses per answer pool; 0 = all
        # The resolution hot path, memoised once per vantage (emptied by
        # add_server, the only thing that changes a placement): a
        # region's placements ranked by (distance, hostname), as
        # parallel exposure-index and address-value arrays, and the
        # answer pool for the active count the vantage was last served
        # at, updated in place as that count moves, so only the ranking
        # is sorted.  All ints, not addresses.
        self._vantages: dict[tuple, _VantagePool] = {}
        # The same pools by the identity of the client's coordinates
        # (id -> (coordinates, region, pool)), so an answer hashes no
        # frozen dataclass; no more entries than vantages, each keeping
        # its coordinates alive, so an id is never reused under it.
        self._by_id: dict[int, tuple] = {}
        self._active_memo: dict[tuple, tuple[PlacedServer, ...]] = {}
        # Flat third-party delivery telemetry (same families the Apple
        # hierarchy uses, with layer="edge").
        registry = get_registry()
        self._m_requests = registry.counter(
            "http_requests_total",
            "HTTP requests served by CDN delivery paths",
            ("operator",),
        ).labels(operator)
        lookups = registry.counter(
            "cache_requests_total",
            "Cache lookups through the delivery hierarchy",
            ("operator", "layer", "outcome"),
        )
        self._m_hit = lookups.labels(operator, "edge", "hit")
        self._m_miss = lookups.labels(operator, "edge", "miss")

    def add_server(self, server: CacheServer, location: Location) -> PlacedServer:
        """Deploy ``server`` at ``location``; returns the placement."""
        placed = PlacedServer(server, location)
        self._servers.append(placed)
        self._by_address[server.address] = placed
        region = MappingRegion.for_continent(location.continent)
        self._by_region[region].append(placed)
        # Deterministic exposure order regardless of insertion order.
        self._by_region[region].sort(key=lambda p: p.server.hostname)
        self._vantages.clear()
        self._by_id.clear()
        self._active_memo.clear()
        return placed

    @property
    def servers(self) -> tuple[PlacedServer, ...]:
        """Every placed server."""
        return tuple(self._servers)

    def servers_in_region(self, region: MappingRegion) -> tuple[PlacedServer, ...]:
        """All placements whose metro maps to ``region``."""
        return tuple(self._by_region[region])

    def server_at(self, address: IPv4Address) -> Optional[CacheServer]:
        """The server owning ``address``, if any."""
        placed = self._by_address.get(address)
        return placed.server if placed is not None else None

    def serve(self, address: IPv4Address, request: "HttpRequest", size: int) -> "HttpResponse":
        """Serve an HTTP request at one of this fleet's delivery servers.

        Third-party fleets are flat (no vip/lx hierarchy): the cache at
        ``address`` answers directly, recording a single Via hop.  This
        is what the AWS-VM availability checks exercise (Section 3.2).
        """
        from ..http.headers import CacheStatus, record_cache_hop
        from ..http.messages import HttpResponse

        placed = self._by_address.get(address)
        if placed is None:
            raise KeyError(f"{address} is not a {self.operator} delivery server")
        server = placed.server
        if server.cache is None:
            raise ValueError(f"{server.hostname} is not a cache")
        key = f"{request.host}{request.path}"
        self._m_requests.inc()
        cached = server.cache.lookup(key)
        if cached is not None:
            self._m_hit.inc()
            response = HttpResponse(status=200, body_size=cached)
            status = CacheStatus.HIT_FRESH
            size = cached
        else:
            self._m_miss.inc()
            server.cache.admit(key, size)
            response = HttpResponse(status=200, body_size=size)
            status = CacheStatus.MISS
        record_cache_hop(
            response, server.hostname, status, agent=f"{self.operator}CacheServer"
        )
        server.account(size)
        return response

    # ----- exposure ---------------------------------------------------

    def _controller(self, region: MappingRegion) -> Optional[ExposureController]:
        controller = self._exposure.get(region)
        if controller is None and self._exposure_factory is not None:
            controller = self._exposure[region] = self._exposure_factory()
        return controller

    def offer_demand(self, now: float, region: MappingRegion, gbps: float) -> None:
        """Report the demand this deployment carries in ``region``."""
        controller = self._controller(region)
        if controller is not None:
            controller.offer(now, gbps)

    def _active_count(self, region: MappingRegion) -> int:
        """How many of ``region``'s placements are exposed right now."""
        size = len(self._by_region[region])
        controller = self._controller(region)
        return size if controller is None else controller.active_count(size)

    def active_servers(self, region: MappingRegion) -> tuple[PlacedServer, ...]:
        """The exposed subset for ``region`` under current demand."""
        count = self._active_count(region)
        active = self._active_memo.get((region, count))
        if active is None:
            active = self._active_memo[(region, count)] = tuple(
                self._by_region[region][:count]
            )
        return active

    def region_capacity_gbps(self, region: MappingRegion) -> float:
        """Total (exposed or not) capacity in ``region``."""
        return sum(p.server.capacity_gbps for p in self._by_region[region])

    # ----- DNS answer pools --------------------------------------------

    def pool_for(self, context: QueryContext) -> array:
        """The candidate addresses a GSLB should answer with, as values.

        Active servers in the client's region, nearest metro first; the
        ``pool_limit`` nearest are returned (all of them when 0), as an
        ``array('I')`` of address values.  The array is the vantage's
        memo and is updated in place when the region's active count
        moves, so it is good until the next call for that vantage: a
        caller reads it at once and keeps no reference (this is the
        ``pool`` callable plugged into
        :class:`repro.dns.policies.GslbAddressPolicy`, which reads it
        inside one answer).
        """
        region, coordinates = context.region, context.coordinates
        entry = self._by_id.get(id(coordinates))
        if entry is not None and entry[0] is coordinates and entry[1] is region:
            memo = entry[2]
        else:
            memo = self._vantage(region, coordinates)
        controller = memo.controller
        count = memo.size if controller is None else controller.active_count(memo.size)
        if memo.count != count:
            self._move(memo, count)
        return memo.pool

    def _vantage(self, region: MappingRegion, coordinates) -> _VantagePool:
        """The pool of the vantage ``(region, coordinates)``, ranked on
        first use and filed under ``coordinates``' identity."""
        memo = self._vantages.get((region, coordinates))
        if memo is None:
            memo = self._vantages[(region, coordinates)] = self._rank(region, coordinates)
        by_id = self._by_id
        if len(by_id) >= len(self._vantages):
            # More coordinate objects than vantages: a caller builds
            # them per query, so start over rather than grow.
            by_id.clear()
        by_id[id(coordinates)] = (coordinates, region, memo)
        return memo

    def _rank(self, region: MappingRegion, coordinates) -> _VantagePool:
        """The vantage's region ranked by (distance, hostname), no pool yet."""
        ranked = sorted(
            (
                great_circle_km(coordinates, placed.location.coordinates),
                placed.server.hostname,
                index,
                placed.server.address.value,
            )
            for index, placed in enumerate(self._by_region[region])
        )
        positions = array("H", [0]) * len(ranked)
        for position, entry in enumerate(ranked):
            positions[entry[2]] = position
        return _VantagePool(
            positions, array("I", [entry[3] for entry in ranked]), self._controller(region)
        )

    def _move(self, memo: _VantagePool, count: int) -> None:
        """Bring ``memo``'s active set and pool from its count to ``count``.

        Exposure order is hostname order, so the active set is exactly
        the placements with exposure index below the count, and the pool
        is their ranking positions in ascending order (the nearest
        ``pool_limit`` of them), which is what sorting the active set
        from scratch gives.  A count that moves by *d* inserts or
        deletes *d* positions, each found by bisection, in the sorted
        positions and in the pool; the median move is one server in a
        pool of dozens.
        """
        positions, values, active, pool = memo.positions, memo.values, memo.active, memo.pool
        limit = self.pool_limit or len(positions)
        for index in range(memo.count, count):  # exposed
            position = positions[index]
            at = bisect_left(active, position)
            active.insert(at, position)
            if at < limit:
                pool.insert(at, values[position])
                if len(pool) > limit:
                    del pool[limit]
        for index in range(count, memo.count):  # withdrawn
            at = bisect_left(active, positions[index])
            del active[at]
            if at < limit:
                del pool[at]
                if len(active) >= limit:
                    pool.append(values[active[limit - 1]])
        memo.count = count

    def __len__(self) -> int:
        return len(self._servers)

    def __str__(self) -> str:
        return f"CdnDeployment({self.operator}, {len(self)} servers)"
