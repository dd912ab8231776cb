"""Edge cases the random corpus only hits occasionally, pinned as tests."""

from __future__ import annotations

import random

import pytest

from repro.conformance.generators import Trial, TrialGenerator
from repro.conformance.runner import build_engine, run_trial
from repro.datastore.query import DataQuery
from repro.exceptions import QueryError
from repro.rules.model import ALLOW, DENY, Rule
from repro.util.geo import LOCATION_GRANULARITIES, LatLon, abstract_location
from repro.util.timeutil import (
    TIME_GRANULARITIES,
    Interval,
    TimeCondition,
    truncate_timestamp,
)

from tests.conftest import MONDAY, make_segment


def _trial(rules, segments, consumer="bob", memberships=None):
    return Trial(
        seed="edge",
        rules=list(rules),
        segments=list(segments),
        consumer=consumer,
        memberships=memberships or {},
    )


def test_zero_length_time_window_releases_nothing():
    """A rule whose only window is empty can never fire — for the engine's
    piece splitter (which sees a degenerate boundary pair) exactly as for
    the oracle (which sees no contained instant)."""
    segment = make_segment(channels=("ECG",), n=8)
    zero = TimeCondition(intervals=(Interval(MONDAY + 3000, MONDAY + 3000),))
    rules = [Rule(consumers=("bob",), time=zero, action=ALLOW)]
    trial = _trial(rules, [segment])
    assert run_trial(trial).ok
    assert build_engine(trial).evaluate_segment("bob", segment) == []


def test_zero_length_deny_window_denies_nothing():
    segment = make_segment(channels=("ECG",), n=8)
    zero = TimeCondition(intervals=(Interval(MONDAY + 3000, MONDAY + 3000),))
    rules = [
        Rule(consumers=("bob",), action=ALLOW),
        Rule(time=zero, action=DENY),
    ]
    trial = _trial(rules, [segment])
    assert run_trial(trial).ok
    pieces = build_engine(trial).evaluate_segment("bob", segment)
    assert sum(p.n_samples for p in pieces) == 8


def test_window_boundary_inside_sampling_gap():
    """An Allow window that opens and closes between two samples: the
    engine may emit a label-only piece covering no sample; the oracle must
    agree nothing sample-bearing leaks."""
    segment = make_segment(channels=("ECG",), n=4, interval_ms=60_000)
    gap = TimeCondition(intervals=(Interval(MONDAY + 1000, MONDAY + 2000),))
    rules = [Rule(consumers=("bob",), time=gap, action=ALLOW)]
    assert run_trial(_trial(rules, [segment])).ok


def test_group_membership_only_consumer():
    """A consumer granted solely via group membership — no rule names them."""
    segment = make_segment(channels=("ECG",))
    rules = [Rule(consumers=("asthma-study",), action=ALLOW)]
    denied = _trial(rules, [segment], consumer="eve")
    assert run_trial(denied).ok
    assert build_engine(denied).evaluate_segment("eve", segment) == []
    member = _trial(
        rules,
        [segment],
        consumer="eve",
        memberships={"eve": frozenset({"asthma-study"})},
    )
    assert run_trial(member).ok
    pieces = build_engine(member).evaluate_segment("eve", segment)
    assert pieces and pieces[0].channels() == ("ECG",)


def test_all_deny_rule_set():
    """100% Deny rules: nothing flows, scoped or not, for anyone."""
    segment = make_segment(channels=("ECG", "AccelX", "GpsLat"))
    rules = [
        Rule(consumers=("bob",), action=DENY),
        Rule(sensors=("Accelerometer",), action=DENY),
        Rule(action=DENY),
    ]
    for consumer in ("bob", "carol", "eve"):
        trial = _trial(rules, [segment], consumer=consumer)
        assert run_trial(trial).ok
        assert build_engine(trial).evaluate_segment(consumer, segment) == []


def test_empty_rule_set_default_denies():
    segment = make_segment(channels=("ECG",))
    trial = _trial([], [segment])
    assert run_trial(trial).ok
    assert build_engine(trial).evaluate_segment("bob", segment) == []


def test_single_sample_segment_conforms():
    segment = make_segment(channels=("MicAmplitude",), n=1)
    rules = [Rule(consumers=("bob",), action=ALLOW)]
    trial = _trial(rules, [segment])
    assert run_trial(trial).ok
    pieces = build_engine(trial).evaluate_segment("bob", segment)
    assert sum(p.n_samples for p in pieces) == 1


def test_truncation_is_monotone_and_idempotent():
    rng = random.Random(99)
    ladder = list(TIME_GRANULARITIES)
    for _ in range(200):
        t = MONDAY + rng.randint(0, 30 * 86_400_000)
        previous = t
        for level in ladder:
            truncated = truncate_timestamp(t, level)
            assert truncated <= t  # never invents the future
            assert truncated <= previous  # coarser never reveals more
            assert truncate_timestamp(truncated, level) == truncated
            previous = truncated


def test_location_abstraction_refines_consistently():
    """If two points collide at a finer level they collide at every
    coarser one — otherwise a coarse label would leak fine distinctions."""
    rng = random.Random(7)
    ladder = list(LOCATION_GRANULARITIES)
    points = [
        LatLon(34.0 + rng.uniform(-0.5, 0.5), -118.4 + rng.uniform(-0.5, 0.5))
        for _ in range(60)
    ]
    for a in points[:20]:
        for b in points[:20]:
            collided = False
            for level in ladder[1:]:  # skip raw coordinates
                same = abstract_location(a, level) == abstract_location(b, level)
                if collided:
                    assert same, (a, b, level)
                collided = collided or same


def test_query_rejects_unknown_keys():
    with pytest.raises(QueryError):
        DataQuery.from_json({"TimeRnage": {"Start": 0, "End": 1}})
    with pytest.raises(QueryError):
        DataQuery.from_json({"Channels": ["ECG"], "limit": 3})
    # The canonical spelling still parses.
    assert DataQuery.from_json({"Channels": ["ECG"], "Limit": 3}).limit_segments == 3


def test_generated_corpus_hits_the_advertised_traps():
    """The generator's bias knobs must actually produce the shapes the
    harness claims to cover; otherwise a refactor could silently turn the
    sweep into 2,000 trivial trials."""
    generator = TrialGenerator(7)
    trials = list(generator.trials(300))
    rules = [r for t in trials for r in t.rules]
    segments = [s for t in trials for s in t.segments]
    assert any(r.action.is_deny for r in rules)
    assert any(r.action.is_abstraction for r in rules)
    assert any(not r.consumers for r in rules)  # wildcard consumer
    assert any(set(r.consumers) & {"research-group", "asthma-study"} for r in rules)
    assert any(
        iv.start == iv.end for r in rules for iv in r.time.intervals
    )  # zero-length windows
    assert any(
        rt.end_minute <= rt.start_minute for r in rules for rt in r.time.repeated
    )  # wrapping / degenerate weekly windows
    assert any(s.interval_ms is None for s in segments)  # non-uniform
    assert any(s.location is None for s in segments)
    assert any(t.memberships for t in trials)
    assert any(not t.rules for t in trials)  # pure default-deny trials


def test_withheld_reasons_are_checked():
    """The ``Withheld`` map feeds the audit trail: it may only explain
    channels of this segment that did not flow, and a "denied by rule"
    reason must name a Deny whose sensor scope covers the channel."""
    from dataclasses import replace

    from repro.conformance.invariants import check_release

    segment = make_segment(channels=("ECG", "AccelX"), n=4)
    deny = Rule(sensors=("ECG",), action=DENY)
    trial = _trial([Rule(consumers=("bob",), action=ALLOW), deny], [segment])
    (piece,) = build_engine(trial).evaluate_segment("bob", segment)
    assert piece.withheld == {"ECG": f"denied by rule {deny.rule_id}"}
    assert check_release(trial, segment, [piece]) == []

    def broken(withheld):
        found = check_release(trial, segment, [replace(piece, withheld=withheld)])
        return [v.invariant for v in found]

    assert broken({"GSR": "withheld: whatever"}) == ["withheld-reasons"]
    assert broken({"AccelX": "withheld: whatever"}) == ["withheld-reasons"]
    assert broken({"ECG": "denied by rule no-such-rule"}) == ["withheld-reasons"]
    allow_id = trial.rules[0].rule_id
    assert broken({"ECG": f"denied by rule {allow_id}"}) == ["withheld-reasons"]
    accel_deny = Rule(consumers=("carol",), sensors=("Accelerometer",), action=DENY)
    trial.rules.append(accel_deny)  # a real Deny, but its scope excludes ECG
    assert broken({"ECG": f"denied by rule {accel_deny.rule_id}"}) == ["withheld-reasons"]


def test_piece_edges_must_sit_on_rule_flips():
    """A window ending one unit late moves a piece edge off the instant
    where the matching rules change — caught even when no sample lands
    there (the off-by-one compiler mutant lives on this check)."""
    from dataclasses import replace

    from repro.conformance.invariants import check_release

    segment = make_segment(channels=("AccelX",), n=8)
    window = TimeCondition(intervals=(Interval(MONDAY, MONDAY + 3500),))
    trial = _trial([Rule(consumers=("bob",), time=window, action=ALLOW)], [segment])
    (piece,) = build_engine(trial).evaluate_segment("bob", segment)
    assert piece.interval == Interval(MONDAY, MONDAY + 3500)
    assert check_release(trial, segment, [piece]) == []
    late = replace(piece, interval=Interval(MONDAY, MONDAY + 3501))
    assert [v.invariant for v in check_release(trial, segment, [late])] == ["piece-geometry"]


def test_released_waveform_may_not_carry_stored_context():
    """The twin of the capture-location check: whatever the rules decide
    about labels, the stored ones never ride out on the waveform — on the
    uniform path and on the non-uniform (embedded ``Time``) one."""
    from dataclasses import replace

    import numpy as np

    from repro.conformance.invariants import check_release
    from repro.datastore.wavesegment import TIME_CHANNEL, WaveSegment

    uniform = make_segment(channels=("AccelX",), n=4)
    timed = WaveSegment(
        "alice", (TIME_CHANNEL, "AccelX"), MONDAY, None,
        np.array([[MONDAY, 1.0], [MONDAY + 7, 2.0], [MONDAY + 30, 3.0]]),
        location=uniform.location, context=dict(uniform.context),
    )
    for segment in (uniform, timed):
        trial = _trial([Rule(consumers=("bob",), action=ALLOW)], [segment])
        (piece,) = build_engine(trial).evaluate_segment("bob", segment)
        assert segment.context and piece.segment.context == {}
        assert piece.context_labels  # the rules did share labels, shaped
        assert check_release(trial, segment, [piece]) == []
        leaky = replace(piece, segment=piece.segment.with_context(segment.context))
        assert [v.invariant for v in check_release(trial, segment, [leaky])] == ["stored-context"]
