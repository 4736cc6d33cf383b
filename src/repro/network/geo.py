"""Geographic primitives: coordinates, distance, and a world-city catalog.

The paper places CDN servers at real geographic locations (geolocated via
IPLOCATION) concentrated in the U.S., Europe and Asia; the evaluation
testbed (Section 4) uses 170 PlanetLab nodes "mainly in the U.S., Europe,
and Asia" with the provider in Atlanta.  We reproduce that layout with a
catalog of real city coordinates plus small jitter for co-located servers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..sim.rng import RandomStream

__all__ = [
    "GeoPoint",
    "haversine_km",
    "City",
    "WORLD_CITIES",
    "CityCatalog",
    "EARTH_RADIUS_KM",
]

EARTH_RADIUS_KM = 6371.0


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """A point on the globe (degrees).

    The radian form and the cosine of the latitude are precomputed once
    at construction so every haversine evaluation is pure arithmetic --
    no trig conversions on the distance hot path.
    """

    lat: float
    lon: float
    #: Derived values (identical to ``math.radians``/``math.cos`` of the
    #: degree fields, so distances are bit-identical to computing inline).
    lat_rad: float = field(init=False, repr=False, compare=False)
    lon_rad: float = field(init=False, repr=False, compare=False)
    cos_lat: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError("latitude out of range: %r" % (self.lat,))
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError("longitude out of range: %r" % (self.lon,))
        object.__setattr__(self, "lat_rad", math.radians(self.lat))
        object.__setattr__(self, "lon_rad", math.radians(self.lon))
        object.__setattr__(self, "cos_lat", math.cos(self.lat_rad))

    def distance_km(self, other: "GeoPoint") -> float:
        return haversine_km(self, other)


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points in kilometres."""
    dlat = b.lat_rad - a.lat_rad
    dlon = b.lon_rad - a.lon_rad
    h = math.sin(dlat / 2.0) ** 2 + a.cos_lat * b.cos_lat * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


@dataclass(frozen=True)
class City:
    """A named location used to place simulated nodes."""

    name: str
    point: GeoPoint
    region: str  # "us" | "europe" | "asia" | "other"


def _city(name: str, lat: float, lon: float, region: str) -> City:
    return City(name, GeoPoint(lat, lon), region)


#: Real-world city coordinates.  Regions are weighted to follow the
#: paper's description of the CDN footprint (mainly U.S./Europe/Asia).
WORLD_CITIES: Tuple[City, ...] = (
    # United States
    _city("Atlanta", 33.749, -84.388, "us"),
    _city("New York", 40.713, -74.006, "us"),
    _city("Chicago", 41.878, -87.630, "us"),
    _city("Los Angeles", 34.052, -118.244, "us"),
    _city("San Francisco", 37.775, -122.419, "us"),
    _city("Seattle", 47.606, -122.332, "us"),
    _city("Dallas", 32.777, -96.797, "us"),
    _city("Miami", 25.762, -80.192, "us"),
    _city("Denver", 39.739, -104.990, "us"),
    _city("Boston", 42.360, -71.059, "us"),
    _city("Washington DC", 38.907, -77.037, "us"),
    _city("Detroit", 42.331, -83.046, "us"),
    _city("Houston", 29.760, -95.370, "us"),
    _city("Phoenix", 33.448, -112.074, "us"),
    _city("Minneapolis", 44.978, -93.265, "us"),
    _city("Salt Lake City", 40.761, -111.891, "us"),
    # Europe
    _city("London", 51.507, -0.128, "europe"),
    _city("Paris", 48.857, 2.352, "europe"),
    _city("Frankfurt", 50.110, 8.682, "europe"),
    _city("Amsterdam", 52.368, 4.904, "europe"),
    _city("Madrid", 40.417, -3.704, "europe"),
    _city("Milan", 45.464, 9.190, "europe"),
    _city("Stockholm", 59.329, 18.069, "europe"),
    _city("Warsaw", 52.230, 21.012, "europe"),
    _city("Zurich", 47.377, 8.541, "europe"),
    _city("Dublin", 53.349, -6.260, "europe"),
    _city("Vienna", 48.208, 16.374, "europe"),
    _city("Prague", 50.075, 14.438, "europe"),
    # Asia / Pacific
    _city("Tokyo", 35.677, 139.650, "asia"),
    _city("Seoul", 37.566, 126.978, "asia"),
    _city("Singapore", 1.352, 103.820, "asia"),
    _city("Hong Kong", 22.319, 114.169, "asia"),
    _city("Beijing", 39.904, 116.407, "asia"),
    _city("Shanghai", 31.230, 121.474, "asia"),
    _city("Taipei", 25.033, 121.565, "asia"),
    _city("Mumbai", 19.076, 72.878, "asia"),
    _city("Bangalore", 12.972, 77.594, "asia"),
    _city("Sydney", -33.869, 151.209, "asia"),
    _city("Osaka", 34.694, 135.502, "asia"),
    _city("Jakarta", -6.175, 106.827, "asia"),
    # Other
    _city("Sao Paulo", -23.551, -46.633, "other"),
    _city("Toronto", 43.651, -79.383, "other"),
    _city("Mexico City", 19.433, -99.133, "other"),
    _city("Johannesburg", -26.204, 28.047, "other"),
    _city("Tel Aviv", 32.085, 34.782, "other"),
    _city("Buenos Aires", -34.603, -58.382, "other"),
)

#: Region weights following "mainly in the U.S., Europe, and Asia".
DEFAULT_REGION_WEIGHTS = {"us": 0.45, "europe": 0.28, "asia": 0.22, "other": 0.05}


class CityCatalog:
    """Weighted sampler over :data:`WORLD_CITIES` with coordinate jitter."""

    def __init__(
        self,
        cities: Sequence[City] = WORLD_CITIES,
        region_weights: Optional[dict] = None,
    ) -> None:
        if not cities:
            raise ValueError("catalog must contain at least one city")
        self.cities: List[City] = list(cities)
        weights = dict(DEFAULT_REGION_WEIGHTS if region_weights is None else region_weights)
        region_counts: dict = {}
        for city in self.cities:
            region_counts[city.region] = region_counts.get(city.region, 0) + 1
        self._weights = [
            weights.get(city.region, 0.0) / region_counts[city.region]
            for city in self.cities
        ]
        if not any(w > 0 for w in self._weights):
            raise ValueError("region weights select no city")

    def by_name(self, name: str) -> City:
        for city in self.cities:
            if city.name == name:
                return city
        raise KeyError(name)

    def sample_city(self, stream: RandomStream) -> City:
        return stream.choices(self.cities, weights=self._weights, k=1)[0]

    def sample_point(self, stream: RandomStream, jitter_deg: float = 0.25) -> Tuple[City, GeoPoint]:
        """Sample a city and a jittered point near it.

        Jitter models distinct data centres within the same metro area; it
        is clamped so the point stays on the globe.
        """
        city = self.sample_city(stream)
        lat = max(-90.0, min(90.0, city.point.lat + stream.uniform(-jitter_deg, jitter_deg)))
        lon = city.point.lon + stream.uniform(-jitter_deg, jitter_deg)
        if lon > 180.0:
            lon -= 360.0
        elif lon < -180.0:
            lon += 360.0
        return city, GeoPoint(lat, lon)
