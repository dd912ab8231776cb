"""A store's region filter is ``Region.contains``, nothing coarser.

Query, aggregate and the owner's delete select by region through one
path: among the segments the time and channel indexes keep, exactly
those whose capture point the region contains.  The differential test
draws the shapes where a lat/lon box misjudges a region — circles that
straddle the antimeridian, ~1,000 km circles at high latitude — beside
points on edges and segments with no location at all.
"""

import time
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.conformance.generators import _destination
from repro.datastore.optimizer import MergePolicy
from repro.datastore.query import DataQuery
from repro.datastore.segment_store import SegmentStore
from repro.util.geo import BoundingBox, CircleRegion, LatLon, PolygonRegion
from repro.util.timeutil import Interval

from tests.conftest import MONDAY, UCLA, make_segment

HOUR = 3_600_000
CHANNEL_POOL = ("ECG", "AccelX", "Respiration")

#: Where a region's bounding box is not the region, plus an ordinary city.
ANCHORS = (
    LatLon(0.0, 179.99),
    LatLon(0.0, -179.99),
    LatLon(61.0, 0.0),
    LatLon(-75.0, -179.9),
    UCLA,
)

#: The antimeridian Deny's circle and a point 1,668 m from its centre,
#: across the antimeridian.
ANTIMERIDIAN = CircleRegion(LatLon(0.0, 179.99), 5_000.0)
ACROSS = LatLon(0.0, -179.995)


def _wrap(lon: float) -> float:
    return (lon + 540.0) % 360.0 - 180.0


def _clamp_lat(lat: float) -> float:
    return max(-90.0, min(90.0, lat))


@st.composite
def points_near(draw, anchor: LatLon, spread: float):
    return LatLon(
        _clamp_lat(anchor.lat + draw(st.floats(-spread, spread))),
        _wrap(anchor.lon + draw(st.floats(-2 * spread, 2 * spread))),
    )


@st.composite
def regions(draw):
    anchor = draw(st.sampled_from(ANCHORS))
    kind = draw(st.sampled_from(("circle", "box", "polygon")))
    if kind == "circle":
        radius = draw(st.sampled_from((500.0, 5_000.0, 60_000.0, 1_000_000.0)))
        return CircleRegion(draw(points_near(anchor, 0.05)), radius)
    if kind == "box":
        a, b = draw(points_near(anchor, 3.0)), draw(points_near(anchor, 3.0))
        return BoundingBox(
            min(a.lat, b.lat), min(a.lon, b.lon), max(a.lat, b.lat), max(a.lon, b.lon)
        )
    return PolygonRegion(tuple(draw(points_near(anchor, 3.0)) for _ in range(3)))


def _edge_points(region) -> list:
    """Points on the region's edges and at its box's corners."""
    box = region.bounding_box()
    points = [
        LatLon(box.south, box.west),
        LatLon(box.north, box.east),
        LatLon(box.south, (box.west + box.east) / 2),
    ]
    if isinstance(region, PolygonRegion):
        points.extend(region.vertices)
    if isinstance(region, CircleRegion):
        points.append(region.center)
    return points


@st.composite
def points_around(draw, region):
    """A point near the region's rim: inside, on it, or just past it."""
    if isinstance(region, CircleRegion):
        reach = region.radius_m * draw(st.floats(0.0, 1.1))
        return _destination(region.center, draw(st.floats(0.0, 360.0)), reach)
    box = region.bounding_box()
    return LatLon(
        _clamp_lat(draw(st.floats(box.south - 0.5, box.north + 0.5))),
        _wrap(draw(st.floats(box.west - 0.5, box.east + 0.5))),
    )


@st.composite
def scenarios(draw):
    region = draw(regions())
    candidates = st.one_of(
        st.none(),
        st.sampled_from(_edge_points(region)),
        points_around(region),
        st.sampled_from(ANCHORS).flatmap(lambda a: points_near(a, 15.0)),
    )
    segments = []
    for i in range(draw(st.integers(1, 12))):
        channels = tuple(
            draw(st.lists(st.sampled_from(CHANNEL_POOL), min_size=1, max_size=2, unique=True))
        )
        segments.append(
            make_segment(
                channels=channels,
                start_ms=MONDAY + i * HOUR + draw(st.integers(0, HOUR // 2)),
                n=4,
                interval_ms=60_000,
                location=draw(candidates),
            )
        )
    time_range = None
    if draw(st.booleans()):
        start = MONDAY + draw(st.integers(0, 12 * HOUR))
        time_range = Interval(start, start + draw(st.integers(1, 6 * HOUR)))
    channels = tuple(
        draw(st.lists(st.sampled_from(CHANNEL_POOL), max_size=2, unique=True))
    )
    return segments, DataQuery(channels=channels, time_range=time_range, region=region)


def _store(segments) -> SegmentStore:
    store = SegmentStore(merge_policy=MergePolicy(enabled=False))
    for segment in segments:
        store.add_segment(segment)
    store.flush()
    return store


def _kept_by_time_and_channel(segment, query: DataQuery) -> bool:
    wanted = query.expanded_channels()
    if wanted and not set(wanted) & set(segment.channels):
        return False
    return query.time_range is None or segment.interval.overlaps(query.time_range)


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_query_and_delete_select_exactly_what_the_region_contains(scenario):
    segments, query = scenario
    region = query.region
    expected = {
        s.segment_id
        for s in segments
        if _kept_by_time_and_channel(s, query)
        and s.location is not None
        and region.contains(s.location)
    }
    store = _store(segments)

    # The query returns the region-less answer, filtered by `contains`
    # (a segment whose clip to the time range holds no sample is dropped
    # either way).
    unfiltered = store.query("alice", replace(query, region=None)).segments
    returned = store.query("alice", query).segments
    assert [s.segment_id for s in returned] == [
        s.segment_id
        for s in unfiltered
        if s.location is not None and region.contains(s.location)
    ]

    # The delete removes exactly the expected whole segments.
    assert store.delete("alice", query) == len(expected)
    left = {s.segment_id for s in store.segments_of("alice")}
    assert left == {s.segment_id for s in segments} - expected


def test_delete_by_an_antimeridian_circle_removes_the_segment_across_it():
    assert ANTIMERIDIAN.contains(ACROSS)
    store = _store([make_segment(location=ACROSS)])
    assert len(store.query("alice", DataQuery(region=ANTIMERIDIAN)).segments) == 1
    assert store.delete("alice", DataQuery(region=ANTIMERIDIAN)) == 1
    assert store.segments_of("alice") == []


def test_high_latitude_circle_finds_a_point_beyond_its_centre_latitude_box():
    # 1,000 km around (60°N, 0°): the centre's cos(lat) puts the box's
    # east edge at 17.99°E, but the circle reaches 18.155°E at 62°N.
    circle = CircleRegion(LatLon(60.0, 0.0), 1_000_000.0)
    point = LatLon(61.99, 18.155)
    assert circle.contains(point) and not circle.bounding_box().contains(point)
    store = _store([make_segment(location=point), make_segment(location=None, start_ms=MONDAY + HOUR)])
    assert [s.location for s in store.query("alice", DataQuery(region=circle)).segments] == [point]


def test_a_continent_sized_box_costs_what_its_candidates_cost():
    # The region tests the time-and-channel candidates, so a ±20° box over
    # one segment is one `contains` call, not a walk of millions of cells.
    store = _store([make_segment(location=UCLA)])
    box = BoundingBox(UCLA.lat - 20, UCLA.lon - 20, UCLA.lat + 20, UCLA.lon + 20)
    started = time.perf_counter()
    result = store.query("alice", DataQuery(region=box))
    elapsed = time.perf_counter() - started
    assert len(result.segments) == 1
    assert elapsed < 0.05, f"±20° box query took {elapsed * 1e3:.1f} ms"
