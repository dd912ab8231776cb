"""Hand-written sanity cases for the brute-force oracle.

The oracle is the harness's ground truth, so it gets its own unit tests
against scenarios worked out by hand from the paper's semantics — if the
oracle drifted, the differential harness would chase phantom bugs.
"""

from __future__ import annotations

import pytest

from repro.conformance.generators import Trial
from repro.conformance.oracle import (
    Decision,
    decide_instant,
    decide_samples,
    effective_levels,
    matching_rules_at,
)
from repro.rules.model import ALLOW, DENY, Rule, abstraction
from repro.util.geo import CircleRegion, LabeledPlace, LatLon
from repro.util.timeutil import Interval, RepeatedTime, TimeCondition, timestamp_ms

from tests.conftest import MONDAY, UCLA, make_segment


def _decide(rules, segment, consumer="bob", memberships=None, places=None):
    trial = Trial(
        seed="hand",
        rules=list(rules),
        segments=[segment],
        consumer=consumer,
        memberships=memberships or {},
        places=places or {},
    )
    return decide_instant(
        trial.rules, segment, trial.principals(), trial.places, MONDAY
    )


def test_default_deny_with_no_rules():
    segment = make_segment(channels=("ECG",))
    assert _decide([], segment) == Decision.nothing()


def test_plain_allow_releases_raw():
    segment = make_segment(channels=("ECG", "SkinTemp"))
    decision = _decide([Rule(consumers=("bob",), action=ALLOW)], segment)
    assert decision.releases
    assert decision.channels == {"ECG", "SkinTemp"}
    assert decision.time_level == "milliseconds"
    assert decision.location_level == "coordinates"


def test_allow_for_other_consumer_does_not_apply():
    segment = make_segment(channels=("ECG",))
    assert not _decide([Rule(consumers=("carol",), action=ALLOW)], segment).releases


def test_group_membership_satisfies_consumer_condition():
    segment = make_segment(channels=("ECG",))
    rule = Rule(consumers=("research-group",), action=ALLOW)
    assert not _decide([rule], segment).releases
    decision = _decide(
        [rule], segment, memberships={"bob": frozenset({"research-group"})}
    )
    assert decision.releases


def test_unscoped_deny_kills_everything():
    segment = make_segment(channels=("ECG",))
    rules = [Rule(consumers=("bob",), action=ALLOW), Rule(action=DENY)]
    assert _decide(rules, segment) == Decision.nothing()


def test_scoped_deny_removes_only_its_channels():
    segment = make_segment(channels=("ECG", "SkinTemp"))
    rules = [
        Rule(consumers=("bob",), action=ALLOW),
        Rule(sensors=("ECG",), action=DENY),
    ]
    decision = _decide(rules, segment)
    assert decision.channels == {"SkinTemp"}


def test_deny_of_whole_group_scope():
    segment = make_segment(channels=("AccelX", "ECG"))
    rules = [
        Rule(consumers=("bob",), action=ALLOW),
        Rule(sensors=("Accelerometer",), action=DENY),
    ]
    assert _decide(rules, segment).channels == {"ECG"}


def test_all_notshare_abstraction_equals_deny():
    segment = make_segment(channels=("ECG",))
    levels = {
        "Location": "NotShare",
        "Time": "NotShare",
        "Activity": "NotShare",
        "Stress": "NotShare",
        "Smoking": "NotShare",
        "Conversation": "NotShare",
    }
    rules = [
        Rule(consumers=("bob",), action=ALLOW),
        Rule(action=abstraction(**levels)),
    ]
    assert _decide(rules, segment) == Decision.nothing()


def test_coarsest_wins_between_conflicting_abstractions():
    fine = Rule(action=abstraction(Time="second"))
    coarse = Rule(action=abstraction(Time="day"))
    levels = effective_levels([fine, coarse])
    assert levels["Time"] == "day"
    assert effective_levels([coarse, fine])["Time"] == "day"


def test_dependency_closure_withholds_revealing_channel():
    # Respiration reveals Smoking (Section 5.1): with Smoking abstracted,
    # the raw Respiration waveform must not flow.
    segment = make_segment(channels=("Respiration", "SkinTemp"))
    rules = [
        Rule(consumers=("bob",), action=ALLOW),
        Rule(action=abstraction(Smoking="NotShare")),
    ]
    decision = _decide(rules, segment)
    assert "Respiration" not in decision.channels
    assert decision.channels == {"SkinTemp"}
    assert "Smoking" not in decision.context_labels


def test_location_abstraction_withholds_gps():
    segment = make_segment(channels=("GpsLat", "GpsLon", "ECG"))
    rules = [
        Rule(consumers=("bob",), action=ALLOW),
        Rule(action=abstraction(Location="city")),
    ]
    decision = _decide(rules, segment)
    assert decision.channels == {"ECG"}
    assert decision.location_level == "city"
    assert isinstance(decision.location, str)


def test_label_needs_a_granted_source_channel():
    # Stress labels come from ECG-family channels; an accelerometer-only
    # grant must not carry a Stress label ("nothing attributable").
    segment = make_segment(channels=("AccelX",), context={"Stress": "Stressed"})
    rules = [Rule(consumers=("bob",), sensors=("AccelX",), action=ALLOW)]
    decision = _decide(rules, segment)
    assert decision.releases
    assert "Stress" not in decision.context_labels


def test_activity_coarsens_to_move_notmove():
    segment = make_segment(channels=("AccelX",), context={"Activity": "Drive"})
    rules = [
        Rule(consumers=("bob",), action=ALLOW),
        Rule(action=abstraction(Activity="MoveNotMove")),
    ]
    assert _decide(rules, segment).context_labels == {"Activity": "Moving"}


def test_location_label_condition_uses_defined_places():
    segment = make_segment(channels=("ECG",), location=UCLA)
    rule = Rule(consumers=("bob",), location_labels=("ucla",), action=ALLOW)
    # Undefined label: the condition can never hold.
    assert not _decide([rule], segment).releases
    places = {"ucla": LabeledPlace("ucla", CircleRegion(UCLA, 500.0))}
    assert _decide([rule], segment, places=places).releases
    far = make_segment(channels=("ECG",), location=LatLon(40.0, -74.0))
    assert not _decide([rule], far, places=places).releases


def test_location_condition_fails_without_capture_location():
    segment = make_segment(channels=("ECG",), location=None)
    rule = Rule(consumers=("bob",), location_labels=("ucla",), action=ALLOW)
    places = {"ucla": LabeledPlace("ucla", CircleRegion(UCLA, 500.0))}
    assert not _decide([rule], segment, places=places).releases


def test_repeated_time_window_wraps_midnight():
    # 23:00–01:00 on Monday: matches Monday 23:30 and Monday 00:30, not 12:00.
    cond = TimeCondition(repeated=(RepeatedTime(frozenset({"Mon"}), 23 * 60, 60),))
    rule = Rule(consumers=("bob",), time=cond, action=ALLOW)
    segment = make_segment(channels=("ECG",))
    late = timestamp_ms(2011, 2, 7, 23, 30)
    early = timestamp_ms(2011, 2, 7, 0, 30)
    noon = timestamp_ms(2011, 2, 7, 12, 0)
    principals = frozenset({"bob"})
    assert matching_rules_at([rule], segment, principals, {}, late)
    assert matching_rules_at([rule], segment, principals, {}, early)
    assert not matching_rules_at([rule], segment, principals, {}, noon)


def test_zero_length_interval_matches_nothing():
    cond = TimeCondition(intervals=(Interval(MONDAY, MONDAY),))
    rule = Rule(consumers=("bob",), time=cond, action=ALLOW)
    segment = make_segment(channels=("ECG",))
    assert not matching_rules_at([rule], segment, frozenset({"bob"}), {}, MONDAY)


def test_context_condition_requires_annotation():
    rule = Rule(consumers=("bob",), contexts=("Drive",), action=ALLOW)
    driving = make_segment(channels=("ECG",), context={"Activity": "Drive"})
    still = make_segment(channels=("ECG",), context={"Activity": "Still"})
    unannotated = make_segment(channels=("ECG",), context={})
    assert _decide([rule], driving).releases
    assert not _decide([rule], still).releases
    assert not _decide([rule], unannotated).releases


def test_decide_samples_covers_every_sample():
    segment = make_segment(channels=("ECG",), n=5, interval_ms=1000)
    rules = [Rule(consumers=("bob",), action=ALLOW)]
    trial = Trial(seed="hand", rules=rules, segments=[segment])
    decisions = decide_samples(rules, segment, trial.principals(), {})
    assert [t for t, _ in decisions] == [MONDAY + i * 1000 for i in range(5)]
    assert all(d.releases for _, d in decisions)


def test_oracle_imports_no_engine_code():
    import ast

    import repro.conformance.oracle as oracle_mod

    tree = ast.parse(open(oracle_mod.__file__, encoding="utf-8").read())
    forbidden = {
        "repro.rules.engine",
        "repro.rules.compiler",
        "repro.rules.abstraction",
        "repro.rules.dependency",
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name not in forbidden, alias.name
        elif isinstance(node, ast.ImportFrom):
            assert node.module not in forbidden, node.module


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
