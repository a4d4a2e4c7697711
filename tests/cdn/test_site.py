"""Tests for repro.cdn.site — the vip/edge-bx/edge-lx hierarchy."""

import pytest

from repro.cdn.cache import ContentCache
from repro.cdn.server import (
    CacheServer,
    SecondaryFunction,
    ServerFunction,
    ServerRole,
)
from repro.cdn.site import EdgeSite, Origin
from repro.http.headers import CacheStatus, parse_via, parse_x_cache
from repro.http.messages import Headers, HttpRequest
from repro.net.asys import AS_APPLE
from repro.net.geo import Continent, Coordinates
from repro.net.ipv4 import IPv4Address
from repro.net.locode import Location

FRA = Location("defra", "Frankfurt", "de", Coordinates(50.11, 8.68), Continent.EUROPE)


def make_server(hostname, address, role, cache_bytes=None):
    return CacheServer(
        hostname=hostname,
        address=IPv4Address.parse(address),
        role=role,
        asn=AS_APPLE,
        cache=ContentCache(cache_bytes) if cache_bytes else None,
    )


VIP_ROLE = ServerRole(ServerFunction.VIP, SecondaryFunction.BX)
BX_ROLE = ServerRole(ServerFunction.EDGE, SecondaryFunction.BX)
LX_ROLE = ServerRole(ServerFunction.EDGE, SecondaryFunction.LX)


@pytest.fixture
def site():
    vip = make_server("defra1-vip-bx-001.aaplimg.com", "17.253.0.1", VIP_ROLE)
    edge_bx = [
        make_server(
            f"defra1-edge-bx-{n:03d}.ts.apple.com", f"17.253.1.{n}", BX_ROLE, 10**9
        )
        for n in range(1, 5)
    ]
    edge_lx = make_server(
        "defra1-edge-lx-001.ts.apple.com", "17.253.3.1", LX_ROLE, 10**10
    )
    return EdgeSite(FRA, 1, vip, edge_bx, edge_lx)


def request(path="/ios11/image.ipsw", client="198.51.100.7"):
    headers = Headers({"X-Client": client})
    return HttpRequest("GET", "appldnld.apple.com", path, headers=headers)


class TestEdgeSiteConstruction:
    def test_requires_edge_bx(self):
        vip = make_server("v.example", "10.0.0.1", VIP_ROLE)
        lx = make_server("l.example", "10.0.0.2", LX_ROLE, 100)
        with pytest.raises(ValueError):
            EdgeSite(FRA, 1, vip, [], lx)

    def test_edge_bx_needs_cache(self):
        vip = make_server("v.example", "10.0.0.1", VIP_ROLE)
        cacheless = make_server("e.example", "10.0.0.3", BX_ROLE)
        lx = make_server("l.example", "10.0.0.2", LX_ROLE, 100)
        with pytest.raises(ValueError):
            EdgeSite(FRA, 1, vip, [cacheless], lx)

    def test_address_is_vip(self, site):
        assert str(site.address) == "17.253.0.1"

    def test_capacity_sums_edge_bx(self, site):
        assert site.capacity_gbps == 40.0  # 4 x default 10 Gbps


class TestServing:
    def test_cold_miss_goes_to_origin(self, site):
        served = site.serve(request(), size=1000)
        assert served.hit_layer is None
        assert served.response.ok
        assert served.response.body_size == 1000

    def test_cold_miss_headers_match_paper_shape(self, site):
        served = site.serve(request(), size=1000)
        statuses = parse_x_cache(served.response.headers.get("X-Cache"))
        assert statuses == [
            CacheStatus.MISS,
            CacheStatus.MISS,
            CacheStatus.HIT_FROM_CLOUDFRONT,
        ]
        hosts = [e.host for e in parse_via(served.response.headers.get("Via"))]
        assert hosts[0].endswith("cloudfront.net")
        assert "edge-lx" in hosts[1]
        assert "edge-bx" in hosts[2]

    def test_second_request_hits_edge_bx(self, site):
        site.serve(request(), size=1000)
        served = site.serve(request(), size=1000)
        assert served.hit_layer == "edge-bx"
        statuses = parse_x_cache(served.response.headers.get("X-Cache"))
        # hit-fresh at edge-bx, replaying the stored origin verdict.
        assert statuses[0] is CacheStatus.HIT_FRESH
        assert statuses[-1] is CacheStatus.HIT_FROM_CLOUDFRONT

    def test_edge_lx_hit_after_bx_eviction(self, site):
        site.serve(request(), size=1000)
        served_first = site.serve(request(), size=1000)
        edge = served_first.edge_bx
        edge.cache.evict("appldnld.apple.com/ios11/image.ipsw")
        served = site.serve(request(), size=1000)
        assert served.hit_layer == "edge-lx"
        statuses = parse_x_cache(served.response.headers.get("X-Cache"))
        # The paper's exact sample: miss (bx), hit-fresh (lx), Hit from cloudfront.
        assert statuses == [
            CacheStatus.MISS,
            CacheStatus.HIT_FRESH,
            CacheStatus.HIT_FROM_CLOUDFRONT,
        ]

    def test_same_path_maps_to_same_edge(self, site):
        a = site.serve(request(client="10.0.0.1"), size=10)
        b = site.serve(request(client="10.0.0.1"), size=10)
        assert a.edge_bx is b.edge_bx

    def test_bytes_accounted_to_edge(self, site):
        served = site.serve(request(), size=1234)
        assert served.edge_bx.served_bytes == 1234
        assert site.vip.served_bytes == 0

    def test_different_paths_spread_over_edges(self, site):
        chosen = {
            site.serve(request(path=f"/img{i}.ipsw"), size=10).edge_bx.hostname
            for i in range(40)
        }
        assert len(chosen) >= 3  # load sharing uses all four in practice


class TestOrigin:
    def test_default_origin_is_cloudfront(self):
        origin = Origin()
        response = origin.fetch(request(), size=55)
        assert response.body_size == 55
        via = parse_via(response.headers.get("Via"))
        assert via[0].agent == "CloudFront"
        assert response.headers.get("X-Cache") == "Hit from cloudfront"

    def test_custom_origin(self):
        origin = Origin(host="origin.example")
        response = origin.fetch(request(), size=1)
        assert parse_via(response.headers.get("Via"))[0].host == "origin.example"
