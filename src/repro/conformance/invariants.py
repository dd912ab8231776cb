"""Engine-output invariants: properties every release must satisfy.

Where the oracle (:mod:`repro.conformance.oracle`) answers "what *should*
have been released", these checks look only at what *was* released and
assert the paper's privacy guarantees directly on it:

* **default-deny** — a rule set with no Allow covering the consumer
  releases nothing;
* **deny-dominance** — no channel a matching Deny scopes ever appears in
  a release covering that instant, and an unscoped Deny suppresses the
  release entirely;
* **dependency-closure** — no released raw channel can re-reveal, via
  :class:`~repro.rules.dependency.DependencyGraph`, a context category
  that is not itself shared raw (Section 5.1's respiration/smoking rule);
* **time-truncation** — the released timestamp is exactly the piece start
  truncated to the effective level, truncation is idempotent, and
  released waveforms are re-anchored so the true clock cannot leak;
* **location-abstraction** — the released location is exactly the
  gazetteer label at the effective level, and raw GPS channels are
  withheld whenever location is coarser than raw coordinates;
* **stored-context** — a released waveform never carries the context
  labels stored on its source segment, only the shaped ``ContextLabels``;
* **piece-geometry / value-integrity** — released pieces stay inside the
  source segment, never overlap, begin and end only where the matching
  rule set flips (piece edges are on the wire as ``Timestamp``), and
  carry values identical to the source samples they cover;
* **withheld-reasons** — the ``Withheld`` map (it feeds the audit trail
  and the owner's UI) names only channels of the source segment, never a
  channel the same piece releases, and every ``denied by rule <id>``
  names a Deny rule of the contributor whose sensor scope covers it.

The query-containment invariant ("the query API never returns more than
the engine released") needs a live service and lives in
:mod:`repro.conformance.runner`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.conformance.generators import Trial
from repro.conformance.oracle import effective_levels, matching_rules_at, _expand_sensors
from repro.datastore.wavesegment import TIME_CHANNEL, WaveSegment
from repro.rules.dependency import DEFAULT_DEPENDENCIES, DependencyGraph
from repro.rules.engine import ReleasedSegment
from repro.sensors.contexts import CONTEXTS
from repro.util.geo import abstract_location
from repro.util.timeutil import truncate_timestamp

_GPS = frozenset(("GpsLat", "GpsLon"))
_DENIED_BY = "denied by rule "


@dataclass(frozen=True)
class Violation:
    """One broken invariant, with enough context to reproduce it."""

    invariant: str
    detail: str
    segment_id: str = ""
    piece_index: Optional[int] = None

    def to_json(self) -> dict:
        obj = {"Invariant": self.invariant, "Detail": self.detail}
        if self.segment_id:
            obj["SegmentId"] = self.segment_id
        if self.piece_index is not None:
            obj["PieceIndex"] = self.piece_index
        return obj


def _covered_sample_times(segment: WaveSegment, piece: ReleasedSegment) -> list:
    return [
        int(t)
        for t in segment.sample_times()
        if piece.interval.start <= int(t) < piece.interval.end
    ]


def _consumer_covered(rule, principals: frozenset) -> bool:
    return not rule.consumers or bool(set(rule.consumers) & principals)


def check_release(
    trial: Trial,
    segment: WaveSegment,
    pieces: Iterable[ReleasedSegment],
    *,
    dependencies: DependencyGraph = DEFAULT_DEPENDENCIES,
) -> list:
    """All invariant violations for one segment's release."""
    pieces = list(pieces)
    principals = trial.principals()
    out: list[Violation] = []

    # Default deny: without an Allow whose consumer condition covers the
    # requester, nothing may leave the store — regardless of every other
    # condition.
    has_covering_allow = any(
        r.action.is_allow and _consumer_covered(r, principals) for r in trial.rules
    )
    if pieces and not has_covering_allow:
        out.append(
            Violation(
                "default-deny",
                f"{len(pieces)} piece(s) released but no Allow rule covers "
                f"principals {sorted(principals)}",
                segment.segment_id,
            )
        )

    deny_scopes = {
        r.rule_id: _expand_sensors(r) for r in trial.rules if r.action.is_deny
    }

    def matching_ids(t: int) -> list:
        return [
            r.rule_id
            for r in matching_rules_at(trial.rules, segment, principals, trial.places, t)
        ]

    seen_intervals: list = []
    for index, piece in enumerate(pieces):
        released_channels = set(piece.channels()) - {TIME_CHANNEL}
        covered = _covered_sample_times(segment, piece)

        # Piece geometry.
        if not segment.interval.contains_interval(piece.interval):
            out.append(
                Violation(
                    "piece-geometry",
                    f"piece {piece.interval} escapes segment span {segment.interval}",
                    segment.segment_id,
                    index,
                )
            )
        for other in seen_intervals:
            if piece.interval.overlaps(other):
                out.append(
                    Violation(
                        "piece-geometry",
                        f"piece {piece.interval} overlaps earlier piece {other}",
                        segment.segment_id,
                        index,
                    )
                )
        seen_intervals.append(piece.interval)
        # An interior edge must sit exactly on an instant where the set of
        # matching rules changes — not a unit early or late, even when no
        # sample lands there to make the slip visible in the data.
        for edge in (piece.interval.start, piece.interval.end):
            if not segment.interval.start < edge < segment.interval.end:
                continue
            if matching_ids(edge - 1) == matching_ids(edge):
                out.append(
                    Violation(
                        "piece-geometry",
                        f"piece {piece.interval} has an edge at t={edge}, where "
                        "the matching rule set does not change",
                        segment.segment_id,
                        index,
                    )
                )

        # Deny dominance, judged at every covered sample instant (and at
        # the piece start, so label-only pieces are covered too).
        for t in covered or [piece.interval.start]:
            for rule in matching_rules_at(trial.rules, segment, principals, trial.places, t):
                if not rule.action.is_deny:
                    continue
                scope = _expand_sensors(rule)
                if scope is None:
                    out.append(
                        Violation(
                            "deny-dominance",
                            f"release at t={t} despite unscoped Deny {rule.rule_id}",
                            segment.segment_id,
                            index,
                        )
                    )
                elif scope & released_channels:
                    out.append(
                        Violation(
                            "deny-dominance",
                            f"channels {sorted(scope & released_channels)} released "
                            f"at t={t} despite Deny {rule.rule_id}",
                            segment.segment_id,
                            index,
                        )
                    )

        # Dependency closure: a released raw channel must not be able to
        # re-reveal a context category that is not shared raw.
        levels = effective_levels(
            matching_rules_at(
                trial.rules, segment, principals, trial.places, piece.interval.start
            )
        )
        raw_shared = frozenset(
            name
            for name, spec in CONTEXTS.items()
            if levels[name] == spec.abstraction_levels[0]
        )
        for channel_name in sorted(released_channels):
            leaked = dependencies.contexts_revealed_by(channel_name) - raw_shared
            if leaked:
                out.append(
                    Violation(
                        "dependency-closure",
                        f"raw {channel_name} released but could re-reveal "
                        f"restricted context(s) {sorted(leaked)}",
                        segment.segment_id,
                        index,
                    )
                )

        # Timestamp truncation and waveform re-anchoring.
        if piece.time_level == "NotShare":
            if piece.timestamp is not None:
                out.append(
                    Violation(
                        "time-truncation",
                        f"timestamp {piece.timestamp} released at NotShare level",
                        segment.segment_id,
                        index,
                    )
                )
            if piece.segment is not None and piece.segment.start_ms != 0:
                out.append(
                    Violation(
                        "time-truncation",
                        f"waveform anchored at {piece.segment.start_ms}, not epoch "
                        "zero, at NotShare level",
                        segment.segment_id,
                        index,
                    )
                )
        else:
            expected_ts = truncate_timestamp(piece.interval.start, piece.time_level)
            if piece.timestamp != expected_ts:
                out.append(
                    Violation(
                        "time-truncation",
                        f"timestamp {piece.timestamp} != truncate({piece.interval.start}, "
                        f"{piece.time_level}) = {expected_ts}",
                        segment.segment_id,
                        index,
                    )
                )
            elif truncate_timestamp(piece.timestamp, piece.time_level) != piece.timestamp:
                out.append(
                    Violation(
                        "time-truncation",
                        f"truncation not idempotent at {piece.time_level}",
                        segment.segment_id,
                        index,
                    )
                )
            if piece.segment is not None:
                if piece.time_level == "milliseconds":
                    if covered and piece.segment.start_ms != covered[0]:
                        out.append(
                            Violation(
                                "time-truncation",
                                f"ms-level waveform starts at {piece.segment.start_ms}, "
                                f"first covered sample is {covered[0]}",
                                segment.segment_id,
                                index,
                            )
                        )
                elif piece.segment.start_ms != expected_ts:
                    out.append(
                        Violation(
                            "time-truncation",
                            f"waveform anchored at {piece.segment.start_ms} instead of "
                            f"the truncated timestamp {expected_ts} — the true clock "
                            "leaks",
                            segment.segment_id,
                            index,
                        )
                    )

        # Location abstraction and the GPS withdrawal rule.
        if piece.location_level != "coordinates" and released_channels & _GPS:
            out.append(
                Violation(
                    "location-abstraction",
                    f"raw GPS channels {sorted(released_channels & _GPS)} released "
                    f"while location is abstracted to {piece.location_level}",
                    segment.segment_id,
                    index,
                )
            )
        if piece.location is not None:
            if piece.location_level == "NotShare":
                out.append(
                    Violation(
                        "location-abstraction",
                        f"location {piece.location!r} released at NotShare level",
                        segment.segment_id,
                        index,
                    )
                )
            elif segment.location is None:
                out.append(
                    Violation(
                        "location-abstraction",
                        f"location {piece.location!r} released for a segment with "
                        "no capture location",
                        segment.segment_id,
                        index,
                    )
                )
            else:
                expected_loc = abstract_location(segment.location, piece.location_level)
                if piece.location != expected_loc:
                    out.append(
                        Violation(
                            "location-abstraction",
                            f"location {piece.location!r} != gazetteer value "
                            f"{expected_loc!r} at {piece.location_level}",
                            segment.segment_id,
                            index,
                        )
                    )
        if piece.segment is not None and piece.segment.location is not None:
            out.append(
                Violation(
                    "location-abstraction",
                    "released waveform still carries its capture location",
                    segment.segment_id,
                    index,
                )
            )

        # Context leaves only as the ContextLabels the oracle diff polices.
        if piece.segment is not None and piece.segment.context:
            out.append(
                Violation(
                    "stored-context",
                    "released waveform still carries stored context",
                    segment.segment_id,
                    index,
                )
            )

        # Withheld reasons: explanations for channels of this segment that
        # did not flow, attributable to a rule that could have denied them.
        for channel_name, reason in sorted(piece.withheld.items()):
            problem = None
            if channel_name not in segment.channels:
                problem = "is not a channel of the source segment"
            elif channel_name in piece.channels():
                problem = "is also released by the same piece"
            elif reason.startswith(_DENIED_BY):
                rule_id = reason[len(_DENIED_BY):]
                if rule_id not in deny_scopes:
                    problem = f"blames {rule_id!r}, which is not a Deny rule of the trial"
                elif deny_scopes[rule_id] is not None and channel_name not in deny_scopes[rule_id]:
                    problem = f"blames Deny {rule_id}, whose sensor scope excludes it"
            if problem is not None:
                out.append(
                    Violation(
                        "withheld-reasons",
                        f"withheld channel {channel_name} ({reason!r}) {problem}",
                        segment.segment_id,
                        index,
                    )
                )

        # Value integrity: released samples must be exactly the source
        # samples the piece covers, channel for channel.
        if piece.segment is not None:
            if piece.segment.n_samples != len(covered):
                out.append(
                    Violation(
                        "value-integrity",
                        f"piece carries {piece.segment.n_samples} samples but covers "
                        f"{len(covered)} source samples",
                        segment.segment_id,
                        index,
                    )
                )
            else:
                times = segment.sample_times()
                rows = [
                    i for i, t in enumerate(times)
                    if piece.interval.start <= int(t) < piece.interval.end
                ]
                for channel_name in sorted(released_channels):
                    if channel_name not in segment.channels:
                        out.append(
                            Violation(
                                "value-integrity",
                                f"released channel {channel_name} does not exist in "
                                "the source segment",
                                segment.segment_id,
                                index,
                            )
                        )
                        continue
                    source = segment.channel_values(channel_name)[rows]
                    got = piece.segment.channel_values(channel_name)
                    if not np.array_equal(source, got):
                        out.append(
                            Violation(
                                "value-integrity",
                                f"released values for {channel_name} differ from the "
                                "source samples",
                                segment.segment_id,
                                index,
                            )
                        )
    return out
