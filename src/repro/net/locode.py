"""A UN/LOCODE location database subset.

Apple names its CDN servers after UN/LOCODE codes (Table 1), e.g.
``usnyc3-vip-bx-008.aaplimg.com`` is site 3 in New York City.  The paper
geolocates the 34 discovered edge sites through these codes, with one
noted deviation: Apple writes London as ``uklon`` where UN/LOCODE says
``gblon``.

This module carries the subset of the location database the reproduction
needs: every metro hosting an Apple edge site, plus a worldwide spread of
cities used to place RIPE Atlas probes and third-party CDN caches.
Coordinates are approximate city centres, sufficient for the great-circle
nearest-site mapping the CDN models perform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .geo import Continent, Coordinates

__all__ = ["Location", "LocodeDatabase", "APPLE_LONDON_ALIAS"]

# Apple's naming deviation noted in Section 3.3.
APPLE_LONDON_ALIAS = ("uklon", "gblon")


@dataclass(frozen=True)
class Location:
    """One UN/LOCODE entry: a city with coordinates and continent."""

    code: str  # five-letter lowercase code, e.g. "usnyc"
    city: str
    country: str  # ISO 3166-1 alpha-2, lowercase
    coordinates: Coordinates
    continent: Continent

    def __post_init__(self) -> None:
        if len(self.code) != 5 or not self.code.isalpha() or not self.code.islower():
            raise ValueError(f"bad LOCODE: {self.code!r}")
        if self.code[:2] != self.country and self.code not in _ALIASED_CODES:
            raise ValueError(
                f"LOCODE {self.code!r} does not start with country {self.country!r}"
            )

    def __str__(self) -> str:
        return f"{self.code} ({self.city})"


_ALIASED_CODES = {"uklon"}  # Apple's uklon is gblon in the real scheme


def _loc(
    code: str,
    city: str,
    latitude: float,
    longitude: float,
    continent: Continent,
    country: Optional[str] = None,
) -> Location:
    return Location(
        code=code,
        city=city,
        country=country if country is not None else code[:2],
        coordinates=Coordinates(latitude, longitude),
        continent=continent,
    )


_NA = Continent.NORTH_AMERICA
_SA = Continent.SOUTH_AMERICA
_EU = Continent.EUROPE
_AS = Continent.ASIA
_OC = Continent.OCEANIA
_AF = Continent.AFRICA

# The built-in subset.  The first block lists metros used by the Apple CDN
# deployment model (Figure 3); the second adds cities for probe placement
# and third-party CDN caches so every continent is populated.
_BUILTIN: tuple[Location, ...] = (
    # --- United States ---
    _loc("usnyc", "New York", 40.7128, -74.0060, _NA),
    _loc("uslax", "Los Angeles", 34.0522, -118.2437, _NA),
    _loc("ussjc", "San Jose", 37.3382, -121.8863, _NA),
    _loc("uschi", "Chicago", 41.8781, -87.6298, _NA),
    _loc("usdal", "Dallas", 32.7767, -96.7970, _NA),
    _loc("usmia", "Miami", 25.7617, -80.1918, _NA),
    _loc("ussea", "Seattle", 47.6062, -122.3321, _NA),
    _loc("usatl", "Atlanta", 33.7490, -84.3880, _NA),
    _loc("usiad", "Ashburn", 39.0438, -77.4874, _NA),
    _loc("usden", "Denver", 39.7392, -104.9903, _NA),
    _loc("ushou", "Houston", 29.7604, -95.3698, _NA),
    _loc("usphx", "Phoenix", 33.4484, -112.0740, _NA),
    _loc("usbos", "Boston", 42.3601, -71.0589, _NA),
    _loc("usmsp", "Minneapolis", 44.9778, -93.2650, _NA),
    # --- Canada / Mexico ---
    _loc("cayto", "Toronto", 43.6532, -79.3832, _NA),
    _loc("camtr", "Montreal", 45.5017, -73.5673, _NA),
    _loc("mxmex", "Mexico City", 19.4326, -99.1332, _NA),
    # --- Europe ---
    _loc("defra", "Frankfurt", 50.1109, 8.6821, _EU),
    _loc("deber", "Berlin", 52.5200, 13.4050, _EU),
    _loc("uklon", "London", 51.5074, -0.1278, _EU, country="gb"),
    _loc("nlams", "Amsterdam", 52.3676, 4.9041, _EU),
    _loc("frpar", "Paris", 48.8566, 2.3522, _EU),
    _loc("semma", "Stockholm", 59.3293, 18.0686, _EU),
    _loc("itmil", "Milan", 45.4642, 9.1900, _EU),
    _loc("esmad", "Madrid", 40.4168, -3.7038, _EU),
    _loc("plwaw", "Warsaw", 52.2297, 21.0122, _EU),
    _loc("atvie", "Vienna", 48.2082, 16.3738, _EU),
    _loc("chzrh", "Zurich", 47.3769, 8.5417, _EU),
    _loc("iedub", "Dublin", 53.3498, -6.2603, _EU),
    _loc("dkcph", "Copenhagen", 55.6761, 12.5683, _EU),
    _loc("czprg", "Prague", 50.0755, 14.4378, _EU),
    _loc("ptlis", "Lisbon", 38.7223, -9.1393, _EU),
    _loc("fihel", "Helsinki", 60.1699, 24.9384, _EU),
    _loc("rumow", "Moscow", 55.7558, 37.6173, _EU),
    # --- Asia ---
    _loc("jptyo", "Tokyo", 35.6762, 139.6503, _AS),
    _loc("jposa", "Osaka", 34.6937, 135.5023, _AS),
    _loc("krsel", "Seoul", 37.5665, 126.9780, _AS),
    _loc("hkhkg", "Hong Kong", 22.3193, 114.1694, _AS),
    _loc("sgsin", "Singapore", 1.3521, 103.8198, _AS),
    _loc("twtpe", "Taipei", 25.0330, 121.5654, _AS),
    _loc("cnsha", "Shanghai", 31.2304, 121.4737, _AS),
    _loc("cnbjs", "Beijing", 39.9042, 116.4074, _AS),
    _loc("inbom", "Mumbai", 19.0760, 72.8777, _AS),
    _loc("indel", "Delhi", 28.7041, 77.1025, _AS),
    _loc("inmaa", "Chennai", 13.0827, 80.2707, _AS),
    _loc("thbkk", "Bangkok", 13.7563, 100.5018, _AS),
    _loc("mykul", "Kuala Lumpur", 3.1390, 101.6869, _AS),
    _loc("idjkt", "Jakarta", -6.2088, 106.8456, _AS),
    _loc("aedxb", "Dubai", 25.2048, 55.2708, _AS),
    _loc("ilhfa", "Haifa", 32.7940, 34.9896, _AS),
    _loc("trist", "Istanbul", 41.0082, 28.9784, _AS),
    # --- Oceania ---
    _loc("ausyd", "Sydney", -33.8688, 151.2093, _OC),
    _loc("aumel", "Melbourne", -37.8136, 144.9631, _OC),
    _loc("aubne", "Brisbane", -27.4698, 153.0251, _OC),
    _loc("nzakl", "Auckland", -36.8485, 174.7633, _OC),
    # --- South America ---
    _loc("brsao", "Sao Paulo", -23.5505, -46.6333, _SA),
    _loc("brrio", "Rio de Janeiro", -22.9068, -43.1729, _SA),
    _loc("arbue", "Buenos Aires", -34.6037, -58.3816, _SA),
    _loc("clscl", "Santiago", -33.4489, -70.6693, _SA),
    _loc("cobog", "Bogota", 4.7110, -74.0721, _SA),
    _loc("pelim", "Lima", -12.0464, -77.0428, _SA),
    # --- Africa ---
    _loc("zajnb", "Johannesburg", -26.2041, 28.0473, _AF),
    _loc("zacpt", "Cape Town", -33.9249, 18.4241, _AF),
    _loc("egcai", "Cairo", 30.0444, 31.2357, _AF),
    _loc("kenbo", "Nairobi", -1.2921, 36.8219, _AF),
    _loc("nglos", "Lagos", 6.5244, 3.3792, _AF),
    _loc("macas", "Casablanca", 33.5731, -7.5898, _AF),
    # --- additional probe metros (RIPE Atlas hosts are everywhere) ---
    _loc("usslc", "Salt Lake City", 40.7608, -111.8910, _NA),
    _loc("uspdx", "Portland", 45.5152, -122.6784, _NA),
    _loc("usclt", "Charlotte", 35.2271, -80.8431, _NA),
    _loc("cavan", "Vancouver", 49.2827, -123.1207, _NA),
    _loc("cacal", "Calgary", 51.0447, -114.0719, _NA),
    _loc("mxgdl", "Guadalajara", 20.6597, -103.3496, _NA),
    _loc("gbman", "Manchester", 53.4808, -2.2426, _EU),
    _loc("gbedi", "Edinburgh", 55.9533, -3.1883, _EU),
    _loc("deham", "Hamburg", 53.5511, 9.9937, _EU),
    _loc("demuc", "Munich", 48.1351, 11.5820, _EU),
    _loc("dedus", "Duesseldorf", 51.2277, 6.7735, _EU),
    _loc("frmrs", "Marseille", 43.2965, 5.3698, _EU),
    _loc("frlio", "Lyon", 45.7640, 4.8357, _EU),
    _loc("itrom", "Rome", 41.9028, 12.4964, _EU),
    _loc("esbcn", "Barcelona", 41.3874, 2.1686, _EU),
    _loc("begro", "Brussels", 50.8503, 4.3517, _EU),
    _loc("noosl", "Oslo", 59.9139, 10.7522, _EU),
    _loc("huhud", "Budapest", 47.4979, 19.0402, _EU),
    _loc("robuh", "Bucharest", 44.4268, 26.1025, _EU),
    _loc("grath", "Athens", 37.9838, 23.7275, _EU),
    _loc("uaiev", "Kyiv", 50.4501, 30.5234, _EU),
    _loc("jpngo", "Nagoya", 35.1815, 136.9066, _AS),
    _loc("krpus", "Busan", 35.1796, 129.0756, _AS),
    _loc("cncan", "Guangzhou", 23.1291, 113.2644, _AS),
    _loc("phmnl", "Manila", 14.5995, 120.9842, _AS),
    _loc("vnsgn", "Ho Chi Minh City", 10.8231, 106.6297, _AS),
    _loc("sariy", "Riyadh", 24.7136, 46.6753, _AS),
    _loc("auper", "Perth", -31.9523, 115.8613, _OC),
    _loc("nzwlg", "Wellington", -41.2866, 174.7756, _OC),
    _loc("brfor", "Fortaleza", -3.7327, -38.5270, _SA),
    _loc("uymvd", "Montevideo", -34.9011, -56.1645, _SA),
    _loc("ecgye", "Guayaquil", -2.1710, -79.9224, _SA),
    _loc("tntun", "Tunis", 36.8065, 10.1815, _AF),
    _loc("ghacc", "Accra", 5.6037, -0.1870, _AF),
    _loc("mumru", "Port Louis", -20.1609, 57.5012, _AF),
)


class LocodeDatabase:
    """Lookup by code plus filtered iteration.

    >>> db = LocodeDatabase.builtin()
    >>> db.get("usnyc").city
    'New York'
    >>> db.canonical_code("uklon")
    'gblon'
    """

    def __init__(self) -> None:
        self._by_code = {location.code: location for location in _BUILTIN}
        if len(self._by_code) != len(_BUILTIN):
            raise ValueError("duplicate LOCODE entries")

    @classmethod
    def builtin(cls) -> "LocodeDatabase":
        """The built-in worldwide subset."""
        return cls()

    def get(self, code: str) -> Location:
        """The location for ``code``; raises ``KeyError`` if unknown."""
        return self._by_code[code]

    def find(self, code: str) -> Optional[Location]:
        """The location for ``code``, or ``None``."""
        return self._by_code.get(code)

    @staticmethod
    def canonical_code(code: str) -> str:
        """Resolve Apple's naming deviations to real UN/LOCODE codes.

        The only known deviation is London: Apple uses ``uklon`` where
        the UN/LOCODE standard assigns ``gblon`` (Section 3.3).
        """
        apple_code, real_code = APPLE_LONDON_ALIAS
        return real_code if code == apple_code else code

    def on_continent(self, continent: Continent) -> Iterator[Location]:
        """Yield all locations on ``continent``."""
        for location in self._by_code.values():
            if location.continent is continent:
                yield location

    def in_country(self, country: str) -> Iterator[Location]:
        """Yield all locations in ISO country ``country`` (lowercase)."""
        for location in self._by_code.values():
            if location.country == country:
                yield location

    def __iter__(self) -> Iterator[Location]:
        return iter(self._by_code.values())

    def __len__(self) -> int:
        return len(self._by_code)

    def __contains__(self, code: object) -> bool:
        return code in self._by_code
