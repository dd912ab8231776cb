"""Geographic primitives: coordinates, regions, and location abstraction.

Data contributors define the Location condition of a privacy rule either by
a pre-defined label ("UCLA", "home") or by drawing a region on a map
(Table 1(a)).  This module provides the region geometries that back the map
UI — axis-aligned bounding boxes, circles, and simple polygons — plus the
location-abstraction ladder of Table 1(b) (coordinates → street address →
zipcode → city → state → country → not shared).

Abstraction uses a deterministic synthetic gazetteer: real reverse geocoding
needs a proprietary map service, so we derive address/zip/city/state labels
from a grid decomposition of the coordinate space.  The grid is stable,
invertible only down to its cell size, and monotone — coarser levels are
functions of finer ones — which is exactly the property the privacy ladder
needs (see DESIGN.md, Substitutions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

from repro.exceptions import GeoError

EARTH_RADIUS_M = 6_371_000.0

#: Location abstraction levels, finest first (Table 1(b), Location row).
LOCATION_GRANULARITIES = (
    "coordinates",
    "street_address",
    "zipcode",
    "city",
    "state",
    "country",
)


@dataclass(frozen=True, order=True)
class LatLon:
    """A WGS-84 coordinate pair in decimal degrees."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise GeoError(f"latitude out of range: {self.lat}")
        if not -180.0 <= self.lon <= 180.0:
            raise GeoError(f"longitude out of range: {self.lon}")

    def to_json(self) -> list:
        return [self.lat, self.lon]

    @classmethod
    def from_json(cls, obj: Sequence[float]) -> "LatLon":
        try:
            lat, lon = float(obj[0]), float(obj[1])
        except (TypeError, ValueError, IndexError) as exc:
            raise GeoError(f"bad coordinate JSON: {obj!r}") from exc
        return cls(lat, lon)


def haversine_m(a: LatLon, b: LatLon) -> float:
    """Great-circle distance between two coordinates, in meters."""
    phi1, phi2 = math.radians(a.lat), math.radians(b.lat)
    dphi = phi2 - phi1
    dlam = math.radians(b.lon - a.lon)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


class Region:
    """Abstract region on the map; subclasses implement containment."""

    kind = "abstract"

    def contains(self, point: LatLon) -> bool:
        raise NotImplementedError

    def bounding_box(self) -> "BoundingBox":
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class BoundingBox(Region):
    """Axis-aligned lat/lon rectangle — the Google-Maps drag-select shape."""

    south: float
    west: float
    north: float
    east: float

    kind = "bbox"

    def __post_init__(self) -> None:
        if self.north < self.south:
            raise GeoError(f"bbox north {self.north} below south {self.south}")
        if self.east < self.west:
            raise GeoError(f"bbox east {self.east} west of west {self.west}")
        LatLon(self.south, self.west)
        LatLon(self.north, self.east)

    def contains(self, point: LatLon) -> bool:
        return self.south <= point.lat <= self.north and self.west <= point.lon <= self.east

    def bounding_box(self) -> "BoundingBox":
        return self

    def center(self) -> LatLon:
        return LatLon((self.south + self.north) / 2.0, (self.west + self.east) / 2.0)

    def intersects(self, other: "BoundingBox") -> bool:
        return (
            self.south <= other.north
            and other.south <= self.north
            and self.west <= other.east
            and other.west <= self.east
        )

    def to_json(self) -> dict:
        return {
            "Type": "BoundingBox",
            "South": self.south,
            "West": self.west,
            "North": self.north,
            "East": self.east,
        }


@dataclass(frozen=True)
class CircleRegion(Region):
    """A circle of ``radius_m`` meters around a center coordinate."""

    center: LatLon
    radius_m: float

    kind = "circle"

    def __post_init__(self) -> None:
        if self.radius_m <= 0:
            raise GeoError(f"circle radius must be positive: {self.radius_m}")

    def contains(self, point: LatLon) -> bool:
        return haversine_m(self.center, point) <= self.radius_m

    def bounding_box(self) -> BoundingBox:
        dlat = math.degrees(self.radius_m / EARTH_RADIUS_M)
        coslat = max(1e-9, math.cos(math.radians(self.center.lat)))
        dlon = math.degrees(self.radius_m / (EARTH_RADIUS_M * coslat))
        return BoundingBox(
            max(-90.0, self.center.lat - dlat),
            max(-180.0, self.center.lon - dlon),
            min(90.0, self.center.lat + dlat),
            min(180.0, self.center.lon + dlon),
        )

    def to_json(self) -> dict:
        return {
            "Type": "Circle",
            "Center": self.center.to_json(),
            "RadiusM": self.radius_m,
        }


@dataclass(frozen=True)
class PolygonRegion(Region):
    """A simple (non-self-intersecting) polygon, vertices in order."""

    vertices: tuple[LatLon, ...]

    kind = "polygon"

    def __post_init__(self) -> None:
        if len(self.vertices) < 3:
            raise GeoError("polygon needs at least three vertices")

    def contains(self, point: LatLon) -> bool:
        # Ray casting in lat/lon space; adequate at the city scales the
        # paper's map UI deals with.
        inside = False
        n = len(self.vertices)
        for i in range(n):
            a = self.vertices[i]
            b = self.vertices[(i + 1) % n]
            if (a.lat > point.lat) != (b.lat > point.lat):
                t = (point.lat - a.lat) / (b.lat - a.lat)
                lon_cross = a.lon + t * (b.lon - a.lon)
                if point.lon < lon_cross:
                    inside = not inside
                elif point.lon == lon_cross:
                    return True  # on an edge counts as inside
        return inside

    def bounding_box(self) -> BoundingBox:
        lats = [v.lat for v in self.vertices]
        lons = [v.lon for v in self.vertices]
        return BoundingBox(min(lats), min(lons), max(lats), max(lons))

    def to_json(self) -> dict:
        return {"Type": "Polygon", "Vertices": [v.to_json() for v in self.vertices]}


def region_from_json(obj: dict) -> Region:
    """Inverse of each Region subclass's ``to_json``."""
    try:
        kind = obj["Type"]
    except (KeyError, TypeError) as exc:
        raise GeoError(f"region JSON missing Type: {obj!r}") from exc
    if kind == "BoundingBox":
        try:
            return BoundingBox(obj["South"], obj["West"], obj["North"], obj["East"])
        except KeyError as exc:
            raise GeoError(f"bad bbox JSON: {obj!r}") from exc
    if kind == "Circle":
        try:
            return CircleRegion(LatLon.from_json(obj["Center"]), float(obj["RadiusM"]))
        except (KeyError, ValueError, TypeError) as exc:
            raise GeoError(f"bad circle JSON: {obj!r}") from exc
    if kind == "Polygon":
        try:
            vertices = tuple(LatLon.from_json(v) for v in obj["Vertices"])
        except (KeyError, TypeError) as exc:
            raise GeoError(f"bad polygon JSON: {obj!r}") from exc
        return PolygonRegion(vertices)
    raise GeoError(f"unknown region type: {kind!r}")


# --------------------------------------------------------------------------
# Synthetic gazetteer: grid-based location abstraction (Table 1(b)).
# --------------------------------------------------------------------------

# Cell edge for the finest level, and integer refinement factors for the
# coarser ones.  Coarser cells are derived from the finest cell by integer
# division, which makes the hierarchy *exactly* monotone — two points in
# one street cell can never land in different city cells, even at
# floating-point cell boundaries.
_FINEST_DEGREES = 0.002  # ~200 m blocks
_LEVEL_FACTOR = {
    "street_address": 1,  # 0.002 deg
    "zipcode": 10,  # 0.02 deg, ~2 km
    "city": 100,  # 0.2 deg, ~20 km
    "state": 1000,  # 2 deg
    "country": 5000,  # 10 deg
}

_LEVEL_PREFIX = {
    "street_address": "addr",
    "zipcode": "zip",
    "city": "city",
    "state": "state",
    "country": "country",
}

def _grid_cell(point: LatLon, level: str) -> tuple[int, int]:
    factor = _LEVEL_FACTOR[level]
    fine_row = math.floor((point.lat + 90.0) / _FINEST_DEGREES)
    fine_col = math.floor((point.lon + 180.0) / _FINEST_DEGREES)
    return (fine_row // factor, fine_col // factor)


def abstract_location(point: LatLon, granularity: str) -> Union[list, str]:
    """Abstract a coordinate to the requested granularity.

    ``"coordinates"`` returns the raw ``[lat, lon]`` pair; every other level
    returns an opaque label string (e.g. ``"zip-5203-8834"``) derived from a
    deterministic grid.  Coarser labels are functions of finer ones, so an
    adversary holding only a coarse label cannot recover a finer one — the
    invariant the Table 1(b) ladder promises.
    """
    if granularity == "coordinates":
        return point.to_json()
    if granularity not in _LEVEL_FACTOR:
        raise GeoError(f"unknown location granularity: {granularity!r}")
    row, col = _grid_cell(point, granularity)
    return f"{_LEVEL_PREFIX[granularity]}-{row}-{col}"


def granularity_index(granularity: str) -> int:
    """Position of a granularity on the ladder; larger is coarser."""
    try:
        return LOCATION_GRANULARITIES.index(granularity)
    except ValueError as exc:
        raise GeoError(f"unknown location granularity: {granularity!r}") from exc


def coarsest(a: str, b: str) -> str:
    """Of two location granularities, return the coarser (safer) one."""
    return a if granularity_index(a) >= granularity_index(b) else b


@dataclass(frozen=True)
class LabeledPlace:
    """A contributor-defined named place ("home", "work", "UCLA")."""

    label: str
    region: Region

    def contains(self, point: LatLon) -> bool:
        return self.region.contains(point)

    def to_json(self) -> dict:
        return {"Label": self.label, "Region": self.region.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "LabeledPlace":
        try:
            return cls(str(obj["Label"]), region_from_json(obj["Region"]))
        except (KeyError, TypeError) as exc:
            raise GeoError(f"bad labeled place JSON: {obj!r}") from exc
