"""Unit tests for catchment maps and their selection rules."""

import pytest

from repro.anycast import AnycastPlane, AnycastSite, ClientGroup
from repro.anycast.catchment import (
    CatchmentMap,
    build_catchment_map,
    mean_mapping_distance_km,
    mean_nearest_distance_km,
    transit_hops,
)
from repro.net.geo import Continent, Coordinates, MappingRegion
from repro.net.ipv4 import IPv4Address, IPv4Prefix


def make_site(site_id, continent, lat, lon):
    return AnycastSite(
        site_id=site_id,
        coordinates=Coordinates(lat, lon),
        continent=continent,
        backend_vip=IPv4Address.parse("17.253.0.1"),
        capacity_gbps=100.0,
    )


def make_group(name, prefix, continent, lat=50.0, lon=8.0):
    return ClientGroup(
        name=name,
        prefix=IPv4Prefix.parse(prefix),
        continent=continent,
        coordinates=Coordinates(lat, lon),
    )


EU_SITE = make_site("defra-1", Continent.EUROPE, 50.11, 8.68)
US_SITE = make_site("usdal-1", Continent.NORTH_AMERICA, 32.78, -96.8)
SITES = (EU_SITE, US_SITE)
SITES_BY_LINK = {site.link_id: site for site in SITES}


def test_transit_hops():
    assert transit_hops(MappingRegion.EU, MappingRegion.EU) == 0
    assert transit_hops(MappingRegion.EU, MappingRegion.US) == 1


def test_same_region_site_wins():
    """One extra transit hop loses to a local announcement."""
    groups = [make_group("eu-client", "89.0.1.0/24", Continent.EUROPE)]
    candidates = [site.base_route() for site in SITES]
    built = build_catchment_map(groups, candidates, SITES_BY_LINK)
    assert built.site_of_group("eu-client") == "defra-1"
    us_groups = [
        make_group("us-client", "198.51.0.0/24", Continent.NORTH_AMERICA,
                   lat=40.0, lon=-100.0)
    ]
    built = build_catchment_map(us_groups, candidates, SITES_BY_LINK)
    assert built.site_of_group("us-client") == "usdal-1"


def test_tiebreak_is_deterministic_and_order_free():
    """Equal-path sites split clients by content digest, not order."""
    site_a = make_site("defra-1", Continent.EUROPE, 50.11, 8.68)
    site_b = make_site("uklon-1", Continent.EUROPE, 51.51, -0.13)
    links = {s.link_id: s for s in (site_a, site_b)}
    groups = [
        make_group(f"eu-{i}", f"89.0.{i}.0/24", Continent.EUROPE)
        for i in range(16)
    ]
    forward = build_catchment_map(
        groups, [site_a.base_route(), site_b.base_route()], links
    )
    backward = build_catchment_map(
        groups, [site_b.base_route(), site_a.base_route()], links
    )
    assert forward.signature == backward.signature
    # The digest split uses both sites (16 groups is plenty to see it).
    assert len(forward.share_by_site()) == 2


def test_prepend_loses_best_path():
    groups = [make_group("eu-client", "89.0.1.0/24", Continent.EUROPE)]
    candidates = [EU_SITE.base_route(prepend=2), US_SITE.base_route()]
    built = build_catchment_map(groups, candidates, SITES_BY_LINK)
    # Local site prepended to length 4 vs remote 2+1: remote wins.
    assert built.site_of_group("eu-client") == "usdal-1"


def test_site_of_is_longest_prefix_match():
    groups = [
        make_group("wide", "89.0.0.0/16", Continent.EUROPE),
        make_group("narrow", "89.0.1.0/24", Continent.NORTH_AMERICA,
                   lat=40.0, lon=-100.0),
    ]
    built = build_catchment_map(
        groups, [s.base_route() for s in SITES], SITES_BY_LINK
    )
    assert built.site_of(IPv4Address.parse("89.0.1.7")) == "usdal-1"
    assert built.site_of(IPv4Address.parse("89.0.2.7")) == "defra-1"
    assert built.site_of(IPv4Address.parse("10.0.0.1")) is None


def test_share_by_site_is_weight_normalised():
    groups = [
        *(make_group(f"eu-{i}", f"89.0.{i}.0/24", Continent.EUROPE)
          for i in range(1, 4)),
        make_group("us", "198.51.0.0/24", Continent.NORTH_AMERICA,
                   lat=40.0, lon=-100.0),
    ]
    built = build_catchment_map(
        groups, [s.base_route() for s in SITES], SITES_BY_LINK
    )
    shares = built.share_by_site()
    assert shares["defra-1"] == pytest.approx(0.75)
    assert shares["usdal-1"] == pytest.approx(0.25)
    assert sum(shares.values()) == pytest.approx(1.0)


def test_diff_names_moved_groups():
    groups = [
        make_group("eu-a", "89.0.1.0/24", Continent.EUROPE),
        make_group("eu-b", "89.0.2.0/24", Continent.EUROPE),
    ]
    both = build_catchment_map(
        groups, [s.base_route() for s in SITES], SITES_BY_LINK
    )
    us_only = build_catchment_map(
        groups, [US_SITE.base_route()], SITES_BY_LINK
    )
    assert set(both.diff(us_only)) == {"eu-a", "eu-b"}
    assert both.diff(both) == ()


def test_empty_map_is_harmless():
    empty = CatchmentMap(())
    assert len(empty) == 0
    assert empty.share_by_site() == {}
    assert empty.site_of(IPv4Address.parse("89.0.1.1")) is None
    assert empty.to_json_dict()["assignments"] == {}
    assert mean_mapping_distance_km(empty, {}) == 0.0
    assert mean_nearest_distance_km(empty, {}) == 0.0


def test_mapping_distance_vs_nearest():
    """Anycast distance is never better than the nearest-site ideal."""
    site_a = make_site("defra-1", Continent.EUROPE, 50.11, 8.68)
    site_b = make_site("uklon-1", Continent.EUROPE, 51.51, -0.13)
    links = {s.link_id: s for s in (site_a, site_b)}
    sites = {s.site_id: s for s in (site_a, site_b)}
    groups = [
        make_group(f"eu-{i}", f"89.0.{i}.0/24", Continent.EUROPE,
                   lat=48.0 + i * 0.5, lon=2.0 + i)
        for i in range(12)
    ]
    built = build_catchment_map(
        groups, [site_a.base_route(), site_b.base_route()], links
    )
    mapping = mean_mapping_distance_km(built, sites)
    nearest = mean_nearest_distance_km(built, sites)
    assert mapping >= nearest >= 0.0


def test_plane_requires_sites():
    with pytest.raises(ValueError):
        AnycastPlane((), (make_group("g", "89.0.1.0/24", Continent.EUROPE),))
