"""Contributor search over synchronized privacy rules (Section 5.2).

"Data consumers can search for all conditions and actions of privacy rules
such as location, time, sensor, context, and abstraction.  For example,
finding data contributors who share ECG and respiration sensor data at the
location labeled 'work' from 9am to 6pm on weekdays can be performed."

Search is implemented by *probe evaluation*: for each contributor, the
broker builds the same :class:`~repro.rules.engine.RuleEngine` a store
would use (from the synced rules and places) and evaluates synthetic probe
segments that embody the criteria — requested channels, placed at the
named location, stamped at representative instants of the requested time
windows, annotated with the requested context.  A contributor matches when
every probe releases every requested channel raw and every required
context label.  Because the probe engine *is* the enforcement engine,
search precision/recall against ground truth is exact (benchmark C5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, FrozenSet, Optional

import numpy as np

from repro.broker.registry import ContributorRecord, ContributorRegistry
from repro.datastore.wavesegment import WaveSegment
from repro.exceptions import QueryError, SensorSafeError
from repro.rules.engine import RuleEngine
from repro.sensors.channels import expand_channel_group
from repro.sensors.contexts import CONTEXTS
from repro.util.geo import LatLon
from repro.util.timeutil import Interval, TimeCondition, timestamp_ms

#: Monday of the canonical probe week (the paper's own demo era).
REFERENCE_WEEK_START = timestamp_ms(2011, 2, 7)

_MS_PER_DAY = 86_400_000

#: Neutral context values for probe segments; criteria override these.
_NEUTRAL_CONTEXT = {
    "Activity": "Still",
    "Stress": "NotStressed",
    "Conversation": "NotConversation",
    "Smoking": "NotSmoking",
}


@dataclass(frozen=True)
class SearchCriteria:
    """What the data consumer needs contributors to share.

    Attributes:
        consumer: the requesting consumer's user name.
        channels: channel or group names that must be released as raw data.
        location_label: the contributor-defined place the data must come
            from; a contributor without a place of that name cannot match.
        time: the windows during which the sharing must hold; probes are
            placed at the midpoint of every matching window on a canonical
            week (absolute ranges probe their own midpoints).
        contexts: context values the probe carries ("Activity" -> "Drive"
            to search for people sharing while driving).
        require_labels: categories whose label (at any non-NotShare level)
            must be released even if raw channels are not requested.
    """

    consumer: str
    channels: tuple[str, ...] = ()
    location_label: Optional[str] = None
    time: TimeCondition = field(default_factory=TimeCondition)
    contexts: dict = field(default_factory=dict)
    require_labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.consumer:
            raise QueryError("search criteria need a consumer name")
        for name in self.channels:
            expand_channel_group(name)
        for category in list(self.contexts) + list(self.require_labels):
            if category not in CONTEXTS:
                raise QueryError(f"unknown context category in criteria: {category!r}")

    def expanded_channels(self) -> tuple:
        out: list[str] = []
        for name in self.channels:
            for ch in expand_channel_group(name):
                if ch not in out:
                    out.append(ch)
        return tuple(out)

    def probe_context(self) -> dict:
        merged = dict(_NEUTRAL_CONTEXT)
        merged.update(self.contexts)
        return merged

    def to_json(self) -> dict:
        obj: dict = {"Consumer": self.consumer}
        if self.channels:
            obj["Sensor"] = list(self.channels)
        if self.location_label:
            obj["LocationLabel"] = self.location_label
        obj.update(self.time.to_json())
        if self.contexts:
            obj["Context"] = dict(self.contexts)
        if self.require_labels:
            obj["RequireLabels"] = list(self.require_labels)
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "SearchCriteria":
        if not isinstance(obj, dict):
            raise QueryError("search criteria must be a JSON object")
        return cls(
            consumer=str(obj.get("Consumer", "")),
            channels=tuple(obj.get("Sensor", ())),
            location_label=obj.get("LocationLabel"),
            time=TimeCondition.from_json(obj),
            contexts=dict(obj.get("Context", {})),
            require_labels=tuple(obj.get("RequireLabels", ())),
        )


def probe_instants(time: TimeCondition) -> list:
    """Representative instants for a time condition.

    Unconstrained conditions probe one canonical instant (Monday noon of
    the reference week).  Absolute ranges probe their midpoints; repeated
    windows probe the midpoint of every occurrence within the canonical
    week.
    """
    if time.is_unconstrained():
        return [REFERENCE_WEEK_START + 12 * 3_600_000]
    instants = [iv.start + iv.duration_ms // 2 for iv in time.intervals]
    if time.repeated:
        week = Interval(REFERENCE_WEEK_START, REFERENCE_WEEK_START + 7 * _MS_PER_DAY)
        for piece in time.matching_intervals(week):
            instants.append(piece.start + piece.duration_ms // 2)
    return sorted(set(instants))


class ContributorSearch:
    """Probe-based search over the broker's contributor registry."""

    def __init__(
        self,
        registry: ContributorRegistry,
        membership: Optional[Callable[[str], FrozenSet[str]]] = None,
    ):
        self.registry = registry
        self.membership = membership

    def matches(self, record: ContributorRecord, criteria: SearchCriteria) -> bool:
        """Does one contributor's rule set satisfy the criteria?"""
        channels = criteria.expanded_channels()
        if not channels and not criteria.require_labels:
            return True  # vacuous criteria: everyone matches
        location = self._probe_location(record, criteria)
        if criteria.location_label is not None and location is None:
            return False  # contributor has no such place
        engine = RuleEngine(record.rules, record.places, membership=self.membership)
        context = criteria.probe_context()
        # The probe must carry the channels whose release is requested,
        # plus the source channels of any required label categories —
        # labels are only releasable for categories the probed channels
        # could reveal.
        probe_channels = list(channels)
        for category in criteria.require_labels:
            for source in CONTEXTS[category].source_channels:
                if source not in probe_channels:
                    probe_channels.append(source)
        for instant in probe_instants(criteria.time):
            probe = self._probe_segment(
                record.name, tuple(probe_channels), instant, location, context
            )
            released = engine.evaluate(criteria.consumer, [probe])
            raw_channels: set = set()
            labels: set = set()
            for item in released:
                raw_channels.update(item.channels())
                labels.update(item.context_labels)
            if not set(channels) <= raw_channels:
                return False
            if not set(criteria.require_labels) <= labels:
                return False
        return True

    def search(self, criteria: SearchCriteria) -> list:
        """Contributor records matching the criteria, name order."""
        return self.search_sharded(criteria)[0]

    def search_sharded(self, criteria: SearchCriteria):
        """The one scan, with per-shard accounting.

        Probe evaluation is pure CPU over the broker's *local* mirror
        (rules + places synced into the registry), so it runs in the
        calling thread, shard by shard.  A record whose evaluation raises
        is fail-closed (counted as an error, never a match) and the rest
        of its shard — and every other shard — still evaluates.  Matches
        come back in contributor-name order, whatever the shard count.

        Returns ``(records, shard_stats)`` with ``shard_stats`` keyed by
        host: ``{"Contributors": n, "Matched": n, "Errors": n}``.
        """
        matches: list = []
        stats: dict[str, dict] = {}
        for record in self.registry.all():
            shard = stats.setdefault(
                record.host, {"Contributors": 0, "Matched": 0, "Errors": 0}
            )
            shard["Contributors"] += 1
            try:
                matched = self.matches(record, criteria)
            except SensorSafeError:
                shard["Errors"] += 1  # fail closed: unevaluable mirror, no match
                continue
            if matched:
                shard["Matched"] += 1
                matches.append(record)
        matches.sort(key=lambda r: r.name)
        return matches, dict(sorted(stats.items()))

    @staticmethod
    def _probe_location(
        record: ContributorRecord, criteria: SearchCriteria
    ) -> Optional[LatLon]:
        if criteria.location_label is not None:
            place = record.places.get(criteria.location_label)
            if place is None:
                return None
            return place.region.bounding_box().center()
        # No location requested: probe at any of the contributor's places
        # (their data is captured where they live), or a neutral point.
        for place in record.places.values():
            return place.region.bounding_box().center()
        return LatLon(0.0, 0.0)

    @staticmethod
    def _probe_segment(
        contributor: str,
        channels: tuple,
        instant: int,
        location: Optional[LatLon],
        context: dict,
    ) -> WaveSegment:
        names = channels or ("AccelX",)
        values = np.zeros((4, len(names)))
        return WaveSegment(
            contributor=contributor,
            channels=tuple(names),
            start_ms=instant,
            interval_ms=1000,
            values=values,
            location=location,
            context=dict(context),
        )
