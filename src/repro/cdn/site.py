"""Edge sites: the vip → edge-bx → edge-lx cache hierarchy.

Section 3.3 infers the internal structure of Apple's delivery sites from
HTTP headers: client requests land on a ``vip-bx`` load balancer that
forwards to one of four associated ``edge-bx`` caches; on a miss the
request goes to an ``edge-lx`` node, and from there to the origin (a
CloudFront host in the paper's header sample).

:class:`EdgeSite` implements that hierarchy faithfully, including the
header mechanics that make the inference possible: each cache stores the
upstream response's headers with the object and replays them on a hit,
then records its own ``Via`` entry and prepends its ``X-Cache`` verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Optional

from ..dns.policies import stable_fraction
from ..http.headers import CacheStatus, record_cache_hop
from ..http.messages import Headers, HttpRequest, HttpResponse
from ..net.ipv4 import IPv4Address
from ..net.locode import Location
from ..obs import get_registry
from .server import CacheServer

__all__ = ["Origin", "EdgeSite", "ServedRequest"]


@dataclass
class Origin:
    """The content origin behind a CDN's caches.

    The paper's header sample shows Apple's origin to be CloudFront;
    the defaults reproduce that byte-for-byte recognisable form.
    """

    host: str = "2db316290386960b489a2a16c0a63643.cloudfront.net"
    agent: ClassVar[str] = "CloudFront"
    protocol: ClassVar[str] = "1.1"

    def fetch(self, request: HttpRequest, size: int) -> HttpResponse:
        """Produce the authoritative response for ``request``."""
        response = HttpResponse(status=200, body_size=size)
        record_cache_hop(
            response,
            host=self.host,
            status=CacheStatus.HIT_FROM_CLOUDFRONT,
            agent=self.agent,
            protocol=self.protocol,
        )
        return response


@dataclass(frozen=True)
class ServedRequest:
    """The outcome of one request served by a site."""

    response: HttpResponse
    vip: CacheServer
    edge_bx: CacheServer
    hit_layer: Optional[str]  # "edge-bx", "edge-lx" or None (origin fetch)


class EdgeSite:
    """One delivery site: a vip fronting edge-bx caches with an lx tier.

    The vip's address is what DNS hands to clients, so "a single Apple
    CDN IP represents the download capacity of four servers"
    (Section 3.3) — :attr:`capacity_gbps` reflects that.
    """

    def __init__(
        self,
        location: Location,
        site_id: int,
        vip: CacheServer,
        edge_bx: list[CacheServer],
        edge_lx: CacheServer,
        origin: Optional[Origin] = None,
    ) -> None:
        if not edge_bx:
            raise ValueError("a site needs at least one edge-bx cache")
        for server in edge_bx:
            if server.cache is None:
                raise ValueError(f"edge-bx {server.hostname} has no content cache")
        if edge_lx.cache is None:
            raise ValueError(f"edge-lx {edge_lx.hostname} has no content cache")
        self.location = location
        self.site_id = site_id
        self.vip = vip
        self.edge_bx = list(edge_bx)
        self.edge_lx = edge_lx
        self.origin = origin if origin is not None else Origin()
        # Fault plane (repro.faults.FaultInjector); None = no faults and
        # the serve path pays a single attribute check.
        self.faults = None
        # Hierarchy telemetry, pre-bound per outcome so the serve path
        # pays one no-op call per hop under the null registry.
        registry = get_registry()
        self._m_requests = registry.counter(
            "http_requests_total",
            "HTTP requests served by CDN delivery paths",
            ("operator",),
        ).labels("Apple")
        lookups = registry.counter(
            "cache_requests_total",
            "Cache lookups through the delivery hierarchy",
            ("operator", "layer", "outcome"),
        )
        self._m_bx_hit = lookups.labels("Apple", "edge-bx", "hit")
        self._m_bx_miss = lookups.labels("Apple", "edge-bx", "miss")
        self._m_lx_hit = lookups.labels("Apple", "edge-lx", "hit")
        self._m_lx_miss = lookups.labels("Apple", "edge-lx", "miss")
        self._m_origin = registry.counter(
            "origin_fetches_total",
            "Requests that fell through every cache layer",
            ("operator",),
        ).labels("Apple")

    @property
    def address(self) -> IPv4Address:
        """The address DNS distributes for this site (the vip's)."""
        return self.vip.address

    @property
    def capacity_gbps(self) -> float:
        """Aggregate delivery capacity behind the vip."""
        return sum(server.capacity_gbps for server in self.edge_bx)

    def choose_edge(self, request: HttpRequest) -> CacheServer:
        """The vip's load-sharing decision (step 5 in Figure 2).

        Sharding is by object path so one object concentrates on one
        edge-bx, with the client address as a tie-breaker across the
        replica set — a standard consistent-assignment scheme.
        """
        client = request.headers.get("X-Client", "")
        index = int(
            stable_fraction(self.vip.hostname, request.path, client)
            * len(self.edge_bx)
        )
        return self.edge_bx[index]

    def serve(self, request: HttpRequest, size: int) -> ServedRequest:
        """Serve ``request`` for an object of ``size`` bytes.

        Walks vip → edge-bx → (miss) edge-lx → (miss) origin, recording
        Via/X-Cache exactly like a chain of Apache Traffic Servers, and
        accounting delivered bytes to the chosen edge-bx.
        """
        edge = self.choose_edge(request)
        key = f"{request.host}{request.path}"
        self._m_requests.inc()

        if self.faults is not None and self.faults.edge_crashed(edge.hostname):
            # §3.3 fallback: the vip-bx routes around a dead edge-bx by
            # serving straight from the site's edge-lx tier.
            return self._serve_via_lx(request, key, size)

        cached = edge.cache.lookup(key)
        if cached is not None:
            self._m_bx_hit.inc()
            response = self._replay(edge, key, cached)
            record_cache_hop(response, edge.hostname, CacheStatus.HIT_FRESH)
            edge.account(cached)
            return ServedRequest(response, self.vip, edge, hit_layer="edge-bx")
        self._m_bx_miss.inc()

        lx_cached = self.edge_lx.cache.lookup(key)
        if lx_cached is not None:
            self._m_lx_hit.inc()
            response = self._replay(self.edge_lx, key, lx_cached)
            record_cache_hop(response, self.edge_lx.hostname, CacheStatus.HIT_FRESH)
            self._admit(edge, key, lx_cached, response)
            record_cache_hop(response, edge.hostname, CacheStatus.MISS)
            edge.account(lx_cached)
            return ServedRequest(response, self.vip, edge, hit_layer="edge-lx")
        self._m_lx_miss.inc()

        self._m_origin.inc()
        response = self.origin.fetch(request, size)
        self._admit(self.edge_lx, key, size, response)
        record_cache_hop(response, self.edge_lx.hostname, CacheStatus.MISS)
        self._admit(edge, key, size, response)
        record_cache_hop(response, edge.hostname, CacheStatus.MISS)
        edge.account(size)
        return ServedRequest(response, self.vip, edge, hit_layer=None)

    def _serve_via_lx(self, request: HttpRequest, key: str, size: int) -> ServedRequest:
        """Serve with the chosen edge-bx crashed: edge-lx → origin only.

        The Via/X-Cache chain then shows a single edge hop — the
        degraded form of the Section 3.3 hierarchy — and no bytes are
        admitted to the dead edge-bx cache.
        """
        lx_cached = self.edge_lx.cache.lookup(key)
        if lx_cached is not None:
            self._m_lx_hit.inc()
            response = self._replay(self.edge_lx, key, lx_cached)
            record_cache_hop(response, self.edge_lx.hostname, CacheStatus.HIT_FRESH)
            self.edge_lx.account(lx_cached)
            return ServedRequest(response, self.vip, self.edge_lx, hit_layer="edge-lx")
        self._m_lx_miss.inc()
        self._m_origin.inc()
        response = self.origin.fetch(request, size)
        self._admit(self.edge_lx, key, size, response)
        record_cache_hop(response, self.edge_lx.hostname, CacheStatus.MISS)
        self.edge_lx.account(size)
        return ServedRequest(response, self.vip, self.edge_lx, hit_layer=None)

    @staticmethod
    def _admit(server: CacheServer, key: str, size: int, response: HttpResponse) -> None:
        server.cache.admit(key, size, metadata=response.headers.copy())

    @staticmethod
    def _replay(server: CacheServer, key: str, size: int) -> HttpResponse:
        stored = server.cache.metadata(key)
        headers = stored.copy() if isinstance(stored, Headers) else Headers()
        return HttpResponse(status=200, headers=headers, body_size=size)

    def __str__(self) -> str:
        return (
            f"EdgeSite({self.location.code}{self.site_id}: "
            f"{len(self.edge_bx)}x edge-bx @ {self.address})"
        )
