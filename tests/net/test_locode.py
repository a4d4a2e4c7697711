"""Tests for repro.net.locode."""

import pytest

from repro.net.geo import Continent, Coordinates
from repro.net import locode
from repro.net.locode import Location, LocodeDatabase


@pytest.fixture(scope="module")
def db():
    return LocodeDatabase.builtin()


class TestLocation:
    def test_code_must_be_five_lowercase_letters(self):
        with pytest.raises(ValueError):
            Location("USNYC", "New York", "us", Coordinates(0, 0), Continent.NORTH_AMERICA)
        with pytest.raises(ValueError):
            Location("usny", "New York", "us", Coordinates(0, 0), Continent.NORTH_AMERICA)

    def test_code_must_match_country(self):
        with pytest.raises(ValueError):
            Location("usnyc", "New York", "de", Coordinates(0, 0), Continent.NORTH_AMERICA)

    def test_london_alias_is_allowed(self):
        # Apple's uklon deviates from UN/LOCODE's gblon (Section 3.3).
        location = Location(
            "uklon", "London", "gb", Coordinates(51.5, -0.13), Continent.EUROPE
        )
        assert location.country == "gb"


class TestLocodeDatabase:
    def test_known_codes(self, db):
        assert db.get("usnyc").city == "New York"
        assert db.get("defra").city == "Frankfurt"
        assert db.get("deber").city == "Berlin"  # Table 1's example location

    def test_get_unknown_raises(self, db):
        with pytest.raises(KeyError):
            db.get("xxxxx")

    def test_find_returns_none_for_unknown(self, db):
        assert db.find("xxxxx") is None

    def test_canonical_code_resolves_london(self, db):
        assert db.canonical_code("uklon") == "gblon"
        assert db.canonical_code("usnyc") == "usnyc"

    def test_every_continent_is_populated(self, db):
        for continent in Continent:
            assert any(db.on_continent(continent)), continent

    def test_on_continent_filters_correctly(self, db):
        for location in db.on_continent(Continent.EUROPE):
            assert location.continent is Continent.EUROPE

    def test_in_country(self, db):
        us_cities = list(db.in_country("us"))
        assert len(us_cities) >= 10  # paper: US has the densest deployment
        assert all(location.country == "us" for location in us_cities)

    def test_london_stored_with_gb_country(self, db):
        assert db.get("uklon").country == "gb"

    def test_contains_and_len(self, db):
        assert "usnyc" in db
        assert "zzzzz" not in db
        assert len(db) >= 60

    def test_no_duplicate_codes(self, db):
        codes = [location.code for location in db]
        assert len(codes) == len(set(codes))

    def test_duplicate_entries_rejected(self, db, monkeypatch):
        nyc = db.get("usnyc")
        monkeypatch.setattr(locode, "_BUILTIN", (nyc, nyc))
        with pytest.raises(ValueError):
            LocodeDatabase()

    def test_coordinates_are_plausible(self, db):
        sydney = db.get("ausyd")
        assert sydney.coordinates.latitude < 0  # southern hemisphere
        assert sydney.continent is Continent.OCEANIA
