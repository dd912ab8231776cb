"""Brute-force reference oracle for the privacy-rule semantics.

For one instant ``t`` of one wave segment, :func:`decide_instant` re-derives
from first principles what a consumer may receive: which channels flow,
which context labels, at which location/time abstraction levels.  The
evaluation is per *sample instant* — no bucketing, no piece splitting, no
pre-indexing — so it is slow and obviously correct, which is the point:
the optimized :class:`~repro.rules.engine.RuleEngine` is diffed against it
sample by sample (see :mod:`repro.conformance.runner`).

Independence: this module deliberately re-implements every *decision* the
engine makes — condition matching (including repeated-time windows, done
here with raw :mod:`datetime` arithmetic), Deny-overrides-Allow, the
coarsest-wins abstraction fold, the Section 5.1 dependency closure, and
label coarsening.  It imports nothing from :mod:`repro.rules.engine`,
:mod:`repro.rules.compiler`, :mod:`repro.rules.abstraction`, or
:mod:`repro.rules.dependency`.  It does read the shared *data registries*
(channel groups, context specs, the gazetteer) — those define the
vocabulary both implementations speak, not the semantics under test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import FrozenSet, Iterable, Mapping, Optional

from repro.datastore.wavesegment import TIME_CHANNEL, WaveSegment
from repro.rules.model import LOCATION_ASPECT, TIME_ASPECT, Rule
from repro.sensors.channels import CHANNEL_GROUPS, CHANNELS
from repro.sensors.contexts import CONTEXTS, label_category, label_matches
from repro.util.geo import LOCATION_GRANULARITIES, LabeledPlace, abstract_location
from repro.util.timeutil import TIME_GRANULARITIES, TimeCondition

#: Ladders, finest first.  Rebuilt here from the registry tuples rather
#: than imported from rules.model so a ladder-ordering bug there cannot
#: hide itself from the oracle.
LOCATION_LADDER = tuple(LOCATION_GRANULARITIES) + ("NotShare",)
TIME_LADDER = tuple(TIME_GRANULARITIES) + ("NotShare",)

_WEEKDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MOVING_MODES = frozenset(("Walk", "Run", "Bike", "Drive"))
_GPS = frozenset(("GpsLat", "GpsLon"))


@dataclass(frozen=True)
class Decision:
    """What the oracle says may flow at one instant of one segment.

    ``channels`` never contains the ``Time`` pseudo-channel — that column
    is bookkeeping for non-uniform segments, not data a rule can grant.
    When ``releases`` is False every other field is empty/None.
    """

    releases: bool = False
    channels: frozenset = frozenset()
    context_labels: dict = field(default_factory=dict)
    location: object = None
    location_level: str = "coordinates"
    time_level: str = "milliseconds"

    @classmethod
    def nothing(cls) -> "Decision":
        return cls()


# ----------------------------------------------------------------------
# Condition matching, re-derived
# ----------------------------------------------------------------------


def _expand_sensors(rule: Rule) -> Optional[frozenset]:
    """The channel scope of a rule, or None when unscoped ("all")."""
    if not rule.sensors:
        return None
    out: set = set()
    for name in rule.sensors:
        if name in CHANNEL_GROUPS:
            out.update(CHANNEL_GROUPS[name])
        elif name in CHANNELS:
            out.add(name)
        else:  # Rule validation rejects unknown names; be strict anyway.
            raise ValueError(f"oracle: unknown sensor name {name!r}")
    return frozenset(out)


def _consumer_ok(rule: Rule, principals: FrozenSet[str]) -> bool:
    return not rule.consumers or bool(set(rule.consumers) & principals)


def _location_ok(rule: Rule, segment: WaveSegment, places: Mapping[str, LabeledPlace]) -> bool:
    if not rule.location_labels and not rule.location_regions:
        return True
    if segment.location is None:
        return False
    for label in rule.location_labels:
        place = places.get(label)
        if place is not None and place.region.contains(segment.location):
            return True
    return any(region.contains(segment.location) for region in rule.location_regions)


def _context_ok(rule: Rule, segment: WaveSegment) -> bool:
    grouped: dict = {}
    for label in rule.contexts:
        grouped.setdefault(label_category(label), []).append(label)
    for category, labels in grouped.items():
        value = segment.context.get(category)
        if value is None or not any(label_matches(lbl, value) for lbl in labels):
            return False
    return True


def _time_ok(cond: TimeCondition, t: int) -> bool:
    """Instant membership in a time condition, via raw datetime math."""
    if not cond.intervals and not cond.repeated:
        return True
    for iv in cond.intervals:
        if iv.start <= t < iv.end:
            return True
    if cond.repeated:
        dt = datetime.fromtimestamp(t / 1000.0, tz=timezone.utc)
        day = _WEEKDAYS[dt.weekday()]
        minute = dt.hour * 60 + dt.minute
        for rt in cond.repeated:
            if day not in rt.days:
                continue
            if rt.start_minute < rt.end_minute:
                if rt.start_minute <= minute < rt.end_minute:
                    return True
            elif rt.start_minute == rt.end_minute:
                return True  # degenerate full-day window
            elif minute >= rt.start_minute or minute < rt.end_minute:
                return True  # wraps past midnight
    return False


def matching_rules_at(
    rules: Iterable[Rule],
    segment: WaveSegment,
    principals: FrozenSet[str],
    places: Mapping[str, LabeledPlace],
    t: int,
) -> list:
    """Every rule whose full condition conjunction holds at instant ``t``."""
    out = []
    for rule in rules:
        if not _consumer_ok(rule, principals):
            continue
        if not _location_ok(rule, segment, places):
            continue
        if not _context_ok(rule, segment):
            continue
        scope = _expand_sensors(rule)
        if scope is not None and not scope & set(segment.channels):
            continue
        if not _time_ok(rule.time, t):
            continue
        out.append(rule)
    return out


# ----------------------------------------------------------------------
# Abstraction algebra, re-derived
# ----------------------------------------------------------------------


def _coarser(ladder: tuple, a: str, b: str) -> str:
    return ladder[max(ladder.index(a), ladder.index(b))]


def effective_levels(matching: Iterable[Rule]) -> dict:
    """Coarsest-wins fold of the matching abstraction rules.

    Returns ``{"Location": level, "Time": level, <category>: level, ...}``
    starting from the finest rung of every ladder (a plain Allow shares
    raw data).
    """
    levels = {LOCATION_ASPECT: LOCATION_LADDER[0], TIME_ASPECT: TIME_LADDER[0]}
    for name, spec in CONTEXTS.items():
        levels[name] = spec.abstraction_levels[0]
    for rule in matching:
        if rule.action.kind != "abstraction":
            continue
        for aspect, level in rule.action.abstraction.items():
            if aspect == LOCATION_ASPECT:
                levels[aspect] = _coarser(LOCATION_LADDER, levels[aspect], level)
            elif aspect == TIME_ASPECT:
                levels[aspect] = _coarser(TIME_LADDER, levels[aspect], level)
            else:
                ladder = CONTEXTS[aspect].abstraction_levels
                levels[aspect] = _coarser(ladder, levels[aspect], level)
    return levels


def _contexts_revealed(channel_name: str) -> frozenset:
    """Categories inferable from a raw channel, straight off the registry."""
    return frozenset(
        name for name, spec in CONTEXTS.items() if channel_name in spec.source_channels
    )


def _label_at_level(category: str, fine_label: str, level: str) -> Optional[str]:
    if level == "NotShare":
        return None
    if category == "Activity" and level == "MoveNotMove":
        return "Moving" if fine_label in _MOVING_MODES else "NotMoving"
    return fine_label


# ----------------------------------------------------------------------
# The decision procedure
# ----------------------------------------------------------------------


def decide_instant(
    rules: Iterable[Rule],
    segment: WaveSegment,
    principals: FrozenSet[str],
    places: Mapping[str, LabeledPlace],
    t: int,
) -> Decision:
    """What may flow to ``principals`` at instant ``t`` of ``segment``.

    The steps mirror the *documented* semantics (engine module docstring
    and DESIGN.md), re-derived independently:

    1. default deny — no matching Allow means nothing flows;
    2. the channel grant is the union of matching Allow scopes;
    3. Deny overrides Allow within its scope; an unscoped Deny kills the
       release outright, labels and location included;
    4. label eligibility is judged on the post-Deny grant: a category's
       label may flow only if some granted channel could reveal it;
    5. abstraction levels fold coarsest-wins; all-NotShare equals Deny;
    6. dependency closure — a channel flows raw only when every category
       it could reveal is itself shared raw;
    7. location coarser than raw coordinates withholds raw GPS channels;
    8. a release carrying neither samples nor labels is suppressed
       (location/timestamp metadata alone would leak without utility).
    """
    matching = matching_rules_at(rules, segment, principals, places, t)
    allows = [r for r in matching if r.action.kind == "allow"]
    if not allows:
        return Decision.nothing()

    segment_channels = set(segment.channels)
    granted: set = set()
    for rule in allows:
        scope = _expand_sensors(rule)
        granted |= segment_channels if scope is None else (scope & segment_channels)

    for rule in matching:
        if rule.action.kind != "deny":
            continue
        scope = _expand_sensors(rule)
        if scope is None:
            return Decision.nothing()
        granted -= scope

    label_eligible = frozenset(
        name
        for name, spec in CONTEXTS.items()
        if set(spec.source_channels) & granted
    )

    levels = effective_levels(matching)
    if all(level == "NotShare" for level in levels.values()):
        return Decision.nothing()

    raw_shared = frozenset(
        name
        for name, spec in CONTEXTS.items()
        if levels[name] == spec.abstraction_levels[0]
    )
    granted = {ch for ch in granted if _contexts_revealed(ch) <= raw_shared}

    if levels[LOCATION_ASPECT] != LOCATION_LADDER[0]:
        granted -= _GPS

    labels: dict = {}
    for category, fine_label in segment.context.items():
        if category not in label_eligible:
            continue
        label = _label_at_level(category, fine_label, levels[category])
        if label is not None:
            labels[category] = label

    data_channels = frozenset(granted) - {TIME_CHANNEL}
    if not data_channels and not labels:
        return Decision.nothing()

    location = None
    if segment.location is not None and levels[LOCATION_ASPECT] != "NotShare":
        location = abstract_location(segment.location, levels[LOCATION_ASPECT])

    return Decision(
        releases=True,
        channels=data_channels,
        context_labels=labels,
        location=location,
        location_level=levels[LOCATION_ASPECT],
        time_level=levels[TIME_ASPECT],
    )


def decide_samples(
    rules: Iterable[Rule],
    segment: WaveSegment,
    principals: FrozenSet[str],
    places: Mapping[str, LabeledPlace],
) -> list:
    """``[(sample_time, Decision), ...]`` for every sample of the segment."""
    return [
        (int(t), decide_instant(rules, segment, principals, places, int(t)))
        for t in segment.sample_times()
    ]
