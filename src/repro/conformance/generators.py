"""Seeded random corpora for the conformance harness.

Everything is driven by one :class:`random.Random` seeded from a string
``"{seed}/{index}"``, so any trial — and therefore any failure — replays
from its ``(seed, index)`` pair alone.  The generators deliberately bias
toward the traps named in the issue: rules for group consumers, undefined
place labels, overlapping and zero-length time windows, wrapping weekly
windows, conflicting Allow/Deny over the same channels, abstraction
actions at every ladder rung, segments with missing location or partial
context annotation, and the occasional non-uniform (Time-column) segment.
:class:`GeoEdgeTrialGenerator` moves the same trials to where a lat/lon box
misjudges a region: across the antimeridian and at high latitudes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.datastore.query import DataQuery, QueryResult
from repro.datastore.wavesegment import TIME_CHANNEL, WaveSegment
from repro.rules.model import LOCATION_ASPECT, LOCATION_LEVELS, TIME_ASPECT, TIME_LEVELS, Action, Rule
from repro.rules.parser import rules_from_json, rules_to_json
from repro.sensors.channels import CHANNEL_GROUPS, channel_names
from repro.sensors.contexts import CONTEXTS, CONTEXT_NAMES
from repro.util.geo import EARTH_RADIUS_M, BoundingBox, CircleRegion, LabeledPlace, LatLon, Region
from repro.util.timeutil import (
    Interval,
    RepeatedTime,
    TimeCondition,
    WEEKDAY_NAMES,
    timestamp_ms,
)

#: Monday, Feb 7 2011 UTC — the paper's own era; all generated data and
#: rule windows land in the following week.
BASE_MS = timestamp_ms(2011, 2, 7)
_DAY_MS = 86_400_000

#: Individual consumers, group/study names, and a never-registered name.
PERSONS = ("bob", "carol", "eve")
GROUPS = ("research-group", "asthma-study")
_RULE_CONSUMER_POOL = PERSONS + GROUPS + ("mallory",)

_UCLA = LatLon(34.0689, -118.4452)
_PLACE_LABELS = ("home", "work", "ucla")
#: A label rules may name but trials only sometimes define — exercising
#: the "label with no defined place never matches" path.
UNDEFINED_PLACE = "gym"


@dataclass
class Trial:
    """One self-contained conformance scenario.

    All segments belong to the single contributor ``"alice"``; the trial's
    ``consumer`` queries them under ``rules``.
    """

    seed: str
    rules: list = field(default_factory=list)
    segments: list = field(default_factory=list)
    consumer: str = "bob"
    memberships: dict = field(default_factory=dict)  # consumer -> frozenset
    places: dict = field(default_factory=dict)  # label -> LabeledPlace

    @property
    def contributor(self) -> str:
        return "alice"

    def principals(self) -> frozenset:
        return frozenset({self.consumer}) | self.memberships.get(self.consumer, frozenset())


def trial_to_json(trial: Trial) -> dict:
    return {
        "Seed": trial.seed,
        "Consumer": trial.consumer,
        "Memberships": {c: sorted(g) for c, g in trial.memberships.items()},
        "Places": [p.to_json() for p in trial.places.values()],
        "Rules": rules_to_json(trial.rules),
        "Segments": [s.to_json() for s in trial.segments],
    }


def trial_from_json(obj: dict) -> Trial:
    places = {}
    for entry in obj.get("Places", []):
        place = LabeledPlace.from_json(entry)
        places[place.label] = place
    return Trial(
        seed=str(obj.get("Seed", "")),
        rules=rules_from_json(obj.get("Rules", [])),
        segments=[WaveSegment.from_json(s) for s in obj.get("Segments", [])],
        consumer=str(obj.get("Consumer", "bob")),
        memberships={
            c: frozenset(g) for c, g in obj.get("Memberships", {}).items()
        },
        places=places,
    )


class TrialGenerator:
    """Deterministic trial factory: ``TrialGenerator(7).trial(42)``."""

    def __init__(self, seed: int):
        self.seed = int(seed)

    def rng_for(self, index: int) -> random.Random:
        return random.Random(f"{self.seed}/{index}")

    # ------------------------------------------------------------------
    # Pieces
    # ------------------------------------------------------------------

    def gen_location(self, rng: random.Random) -> Optional[LatLon]:
        roll = rng.random()
        if roll < 0.15:
            return None  # fixed/unknown sensor
        if roll < 0.30:  # far from every defined place
            return LatLon(40.0 + rng.uniform(-0.5, 0.5), -74.0 + rng.uniform(-0.5, 0.5))
        # Near the place cluster, so place-conditioned rules sometimes match.
        return LatLon(
            _UCLA.lat + rng.uniform(-0.02, 0.02),
            _UCLA.lon + rng.uniform(-0.02, 0.02),
        )

    def gen_context(self, rng: random.Random) -> dict:
        context = {}
        for name, spec in CONTEXTS.items():
            if rng.random() < 0.75:
                context[name] = rng.choice(spec.labels)
        return context

    def gen_segment(self, rng: random.Random, anchors: tuple = ()) -> WaveSegment:
        names = list(channel_names())
        k = rng.randint(1, 4)
        channels = tuple(rng.sample(names, k))
        n = rng.randint(1, 24)
        start = BASE_MS + rng.randint(0, 7 * _DAY_MS - 1)
        if anchors and rng.random() < 0.35:
            # Start just before a rule's time-window boundary so the
            # boundary falls *inside* the span: piece splitting, window
            # clipping, and membership flips all get exercised.
            anchor = rng.choice(anchors)
            start = max(BASE_MS, anchor - rng.randint(0, 10 * 60_000))
        elif rng.random() < 0.20:
            # Minute-align the start so sample instants coincide with the
            # minute/day-snapped rule windows (boundary coverage).
            start = (start // 60_000) * 60_000
        location = self.gen_location(rng)
        context = self.gen_context(rng)
        if rng.random() < 0.15:
            # Non-uniform segment: explicit Time column, irregular gaps.
            times = [start]
            for _ in range(n - 1):
                times.append(times[-1] + rng.randint(100, 120_000))
            cols = [np.asarray(times, dtype=np.float64)]
            for _ in channels:
                cols.append(np.asarray([rng.uniform(-5, 5) for _ in range(n)]))
            return WaveSegment(
                contributor="alice",
                channels=(TIME_CHANNEL,) + channels,
                start_ms=start,
                interval_ms=None,
                values=np.column_stack(cols),
                location=location,
                context=context,
            )
        interval = rng.choice((250, 1000, 5000, 60_000))
        values = np.asarray(
            [[rng.uniform(-5, 5) for _ in channels] for _ in range(n)]
        )
        return WaveSegment(
            contributor="alice",
            channels=channels,
            start_ms=start,
            interval_ms=interval,
            values=values,
            location=location,
            context=context,
        )

    def gen_region(self, rng: random.Random) -> Region:
        if rng.random() < 0.5:
            lat = _UCLA.lat + rng.uniform(-0.05, 0.05)
            lon = _UCLA.lon + rng.uniform(-0.05, 0.05)
            dlat, dlon = rng.uniform(0.005, 0.05), rng.uniform(0.005, 0.05)
            return BoundingBox(lat - dlat, lon - dlon, lat + dlat, lon + dlon)
        center = LatLon(
            _UCLA.lat + rng.uniform(-0.05, 0.05), _UCLA.lon + rng.uniform(-0.05, 0.05)
        )
        return CircleRegion(center, rng.uniform(200, 8000))

    def gen_places(self, rng: random.Random) -> dict:
        places = {}
        for label in _PLACE_LABELS:
            if rng.random() < 0.85:
                places[label] = LabeledPlace(label, self.gen_region(rng))
        if rng.random() < 0.2:  # occasionally the "gym" does exist
            places[UNDEFINED_PLACE] = LabeledPlace(UNDEFINED_PLACE, self.gen_region(rng))
        return places

    def gen_time_condition(self, rng: random.Random) -> TimeCondition:
        roll = rng.random()
        if roll < 0.50:
            return TimeCondition()
        intervals: list = []
        repeated: list = []
        if roll < 0.80:
            for _ in range(rng.randint(1, 2)):
                start = BASE_MS + rng.randint(-_DAY_MS, 7 * _DAY_MS)
                if rng.random() < 0.20:
                    # Snap to a minute/day boundary: the compiled engine
                    # pre-splits windows at exactly these points, so
                    # boundary-coincident intervals probe its off-by-ones.
                    grain = 60_000 if rng.random() < 0.5 else _DAY_MS
                    start = (start // grain) * grain
                if rng.random() < 0.08:
                    intervals.append(Interval(start, start))  # zero-length
                elif rng.random() < 0.30:
                    # Short window, comparable to a segment span: its end
                    # then lands *inside* spans often enough to exercise
                    # the piece-splitting boundary logic every sweep.
                    intervals.append(
                        Interval(start, start + rng.randint(1, 30 * 60_000))
                    )
                else:
                    intervals.append(Interval(start, start + rng.randint(1, 2 * _DAY_MS)))
        else:
            for _ in range(rng.randint(1, 2)):
                days = rng.sample(WEEKDAY_NAMES, rng.randint(1, 3))
                start_minute = rng.randrange(0, 1440)
                if rng.random() < 0.10:
                    end_minute = start_minute  # degenerate full-day window
                else:
                    end_minute = rng.randrange(0, 1440)  # may wrap midnight
                repeated.append(RepeatedTime(frozenset(days), start_minute, end_minute))
        return TimeCondition(tuple(intervals), tuple(repeated))

    def gen_action(self, rng: random.Random) -> Action:
        roll = rng.random()
        if roll < 0.45:
            return Action("allow")
        if roll < 0.65:
            return Action("deny")
        aspects: dict = {}
        pool = [LOCATION_ASPECT, TIME_ASPECT] + list(CONTEXTS)
        for aspect in rng.sample(pool, rng.randint(1, 3)):
            if aspect == LOCATION_ASPECT:
                aspects[aspect] = rng.choice(LOCATION_LEVELS)
            elif aspect == TIME_ASPECT:
                aspects[aspect] = rng.choice(TIME_LEVELS)
            else:
                aspects[aspect] = rng.choice(CONTEXTS[aspect].abstraction_levels)
        return Action("abstraction", aspects)

    def gen_rule(self, rng: random.Random, places: dict) -> Rule:
        consumers: tuple = ()
        if rng.random() < 0.60:
            consumers = tuple(
                rng.sample(_RULE_CONSUMER_POOL, rng.randint(1, 2))
            )
        location_labels: tuple = ()
        location_regions: tuple = ()
        roll = rng.random()
        if roll < 0.20:
            pool = list(_PLACE_LABELS) + [UNDEFINED_PLACE]
            location_labels = tuple(rng.sample(pool, rng.randint(1, 2)))
        elif roll < 0.32:
            location_regions = (self.gen_region(rng),)
        sensors: tuple = ()
        if rng.random() < 0.40:
            pool = list(channel_names()) + list(CHANNEL_GROUPS)
            sensors = tuple(rng.sample(pool, rng.randint(1, 2)))
        contexts: tuple = ()
        if rng.random() < 0.30:
            contexts = tuple(rng.sample(CONTEXT_NAMES, rng.randint(1, 2)))
        return Rule(
            consumers=consumers,
            location_labels=location_labels,
            location_regions=location_regions,
            time=self.gen_time_condition(rng),
            sensors=sensors,
            contexts=contexts,
            action=self.gen_action(rng),
        )

    # ------------------------------------------------------------------
    # Whole trials
    # ------------------------------------------------------------------

    def trial(self, index: int) -> Trial:
        rng = self.rng_for(index)
        places = self.gen_places(rng)
        rules = [self.gen_rule(rng, places) for _ in range(rng.randint(0, 8))]
        # Static time-window edges inside the segment date range become
        # anchor instants some segments start near (boundary coverage).
        anchors = tuple(
            t
            for rule in rules
            for iv in rule.time.intervals
            for t in (iv.start, iv.end)
            if BASE_MS <= t < BASE_MS + 7 * _DAY_MS
        )
        segments = [self.gen_segment(rng, anchors) for _ in range(rng.randint(1, 3))]
        consumer = rng.choice(PERSONS)
        memberships: dict = {}
        groups = [g for g in GROUPS if rng.random() < 0.4]
        if groups:
            memberships[consumer] = frozenset(groups)
        return Trial(
            seed=f"{self.seed}/{index}",
            rules=rules,
            segments=segments,
            consumer=consumer,
            memberships=memberships,
            places=places,
        )

    def trials(self, n: int, start: int = 0):
        for index in range(start, start + n):
            yield self.trial(index)

    # ------------------------------------------------------------------
    # Query-layer corpora (round-trip tests, end-to-end checks)
    # ------------------------------------------------------------------

    def gen_query(self, rng: random.Random) -> DataQuery:
        channels: tuple = ()
        if rng.random() < 0.5:
            pool = list(channel_names()) + list(CHANNEL_GROUPS)
            channels = tuple(rng.sample(pool, rng.randint(1, 3)))
        time_range = None
        if rng.random() < 0.5:
            start = BASE_MS + rng.randint(0, 6 * _DAY_MS)
            time_range = Interval(start, start + rng.randint(1, 2 * _DAY_MS))
        region = self.gen_region(rng) if rng.random() < 0.3 else None
        limit = rng.randint(1, 50) if rng.random() < 0.3 else None
        return DataQuery(
            channels=channels, time_range=time_range, region=region, limit_segments=limit
        )

    def gen_query_result(self, rng: random.Random) -> QueryResult:
        segments = [self.gen_segment(rng) for _ in range(rng.randint(0, 3))]
        return QueryResult(
            segments=segments,
            scanned_segments=rng.randint(len(segments), len(segments) + 20),
            truncated=rng.random() < 0.3,
        )


#: (site, circle radii in m) where a lat/lon box is not the region: the
#: antimeridian, and a high latitude where a ~1,000 km circle reaches past
#: the longitude its centre's ``cos(lat)`` suggests.
_EDGE_SITES = (
    (LatLon(0.0, 180.0), (2_000.0, 10_000.0)),
    (LatLon(78.0, 0.0), (400_000.0, 1_000_000.0)),
)


def _destination(origin: LatLon, bearing_deg: float, distance_m: float) -> LatLon:
    """The point ``distance_m`` from ``origin`` along a great circle."""
    lat, lon, theta = map(math.radians, (origin.lat, origin.lon, bearing_deg))
    d = distance_m / EARTH_RADIUS_M
    lat2 = math.asin(math.sin(lat) * math.cos(d) + math.cos(lat) * math.sin(d) * math.cos(theta))
    lon2 = lon + math.atan2(
        math.sin(theta) * math.sin(d) * math.cos(lat), math.cos(d) - math.sin(lat) * math.sin(lat2)
    )
    return LatLon(math.degrees(lat2), (math.degrees(lon2) + 540.0) % 360.0 - 180.0)


class GeoEdgeTrialGenerator(TrialGenerator):
    """The base trials with every region and capture point at an edge site.

    A region is a circle about a site (or the circle's box); a capture
    point lands about one radius from a site, near some circle's rim,
    where only ``Region.contains`` answers right.
    """

    def gen_location(self, rng: random.Random) -> Optional[LatLon]:
        """A capture point about one site radius out, or (10 %) none."""
        if rng.random() < 0.10:
            return None
        anchor, radii = rng.choice(_EDGE_SITES)
        reach = rng.choice(radii) * rng.uniform(0.9, 1.02)
        return _destination(anchor, rng.uniform(0.0, 360.0), reach)

    def gen_region(self, rng: random.Random) -> Region:
        """A circle about a site, or (20 %) that circle's bounding box."""
        anchor, radii = rng.choice(_EDGE_SITES)
        radius = rng.choice(radii)
        offset = radius * rng.uniform(0.0, 0.02)
        circle = CircleRegion(_destination(anchor, rng.uniform(0.0, 360.0), offset), radius)
        return circle.bounding_box() if rng.random() < 0.2 else circle


# ----------------------------------------------------------------------
# Shrinking helpers (structure edits that keep instances valid)
# ----------------------------------------------------------------------


def rule_variant(rule: Rule, **changes) -> Rule:
    """A copy of ``rule`` with fields replaced and its id re-derived."""
    return replace(rule, rule_id="", **changes)


def segment_truncated(segment: WaveSegment, n: int) -> Optional[WaveSegment]:
    """The first ``n`` samples of a segment, or None when not shrinkable."""
    if n < 1 or n >= segment.n_samples:
        return None
    return replace(segment, values=segment.values[:n], segment_id="")


def segment_without_channel(segment: WaveSegment, name: str) -> Optional[WaveSegment]:
    """Drop one data channel (never the Time column), or None if impossible."""
    if name == TIME_CHANNEL or name not in segment.channels:
        return None
    keep = [c for c in segment.channels if c != name]
    if not keep or keep == [TIME_CHANNEL]:
        return None
    cols = [segment.channels.index(c) for c in keep]
    return replace(
        segment, channels=tuple(keep), values=segment.values[:, cols], segment_id=""
    )


def segment_without_context(segment: WaveSegment, category: str) -> Optional[WaveSegment]:
    if category not in segment.context:
        return None
    context = {k: v for k, v in segment.context.items() if k != category}
    return replace(segment, context=context, segment_id="")


def segment_without_location(segment: WaveSegment) -> Optional[WaveSegment]:
    if segment.location is None:
        return None
    return replace(segment, location=None, segment_id="")
