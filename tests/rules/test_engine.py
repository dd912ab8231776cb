"""Tests for the rule-evaluation engine: conflict resolution, closure,
time splitting, and release shaping."""

import numpy as np
import pytest

from repro.rules.engine import ReleasedSegment, RuleEngine
from repro.rules.model import ALLOW, DENY, Rule, abstraction
from repro.util.geo import BoundingBox, LabeledPlace, LatLon
from repro.util.timeutil import Interval, RepeatedTime, TimeCondition, timestamp_ms

from tests.conftest import MONDAY, UCLA, make_segment

_HOUR = 3_600_000

PLACES = {
    "UCLA": LabeledPlace("UCLA", BoundingBox(34.0, -118.5, 34.1, -118.4)),
    "home": LabeledPlace("home", BoundingBox(34.02, -118.48, 34.04, -118.46)),
}

HOME_POINT = LatLon(34.03, -118.47)


def ctx(activity="Still", stress="NotStressed", conv="NotConversation", smoke="NotSmoking"):
    return {
        "Activity": activity,
        "Stress": stress,
        "Conversation": conv,
        "Smoking": smoke,
    }


class TestDefaultDeny:
    def test_no_rules_releases_nothing(self):
        engine = RuleEngine([], PLACES)
        assert engine.evaluate("bob", [make_segment()]) == []

    def test_rules_for_other_consumers_release_nothing(self):
        engine = RuleEngine([Rule(consumers=("carol",), action=ALLOW)], PLACES)
        assert engine.evaluate("bob", [make_segment()]) == []

    def test_abstraction_without_allow_releases_nothing(self):
        """Abstraction restricts an allow; alone it grants nothing."""
        engine = RuleEngine(
            [Rule(consumers=("bob",), action=abstraction(Stress="NotShare"))], PLACES
        )
        assert engine.evaluate("bob", [make_segment()]) == []


class TestAllow:
    def test_plain_allow_shares_raw(self):
        engine = RuleEngine([Rule(consumers=("bob",), action=ALLOW)], PLACES)
        (released,) = engine.evaluate("bob", [make_segment(channels=("ECG",))])
        assert released.channels() == ("ECG",)
        assert released.location == [UCLA.lat, UCLA.lon]
        assert released.timestamp == MONDAY
        assert released.time_level == "milliseconds"
        assert released.context_labels["Stress"] == "NotStressed"
        # Released segments carry location and context out-of-band, shaped
        # by the rules, never on the segment.
        assert released.segment.location is None
        assert released.segment.context == {}

    def test_wildcard_rule_applies_to_everyone(self):
        engine = RuleEngine([Rule(action=ALLOW)], PLACES)
        assert engine.evaluate("anyone", [make_segment()]) != []

    def test_sensor_scoped_allow_limits_channels(self):
        engine = RuleEngine(
            [Rule(consumers=("bob",), sensors=("Accelerometer",), action=ALLOW)], PLACES
        )
        seg = make_segment(channels=("AccelX", "ECG"), n=4)
        (released,) = engine.evaluate("bob", [seg])
        assert released.channels() == ("AccelX",)

    def test_union_of_allow_scopes(self):
        engine = RuleEngine(
            [
                Rule(consumers=("bob",), sensors=("ECG",), action=ALLOW),
                Rule(consumers=("bob",), sensors=("Respiration",), action=ALLOW),
            ],
            PLACES,
        )
        seg = make_segment(channels=("ECG", "Respiration", "AccelX"), n=4)
        (released,) = engine.evaluate("bob", [seg])
        assert set(released.channels()) == {"ECG", "Respiration"}


class TestDenyOverrides:
    def test_full_deny_wins_over_allow(self):
        engine = RuleEngine(
            [
                Rule(consumers=("bob",), action=ALLOW),
                Rule(consumers=("bob",), action=DENY),
            ],
            PLACES,
        )
        assert engine.evaluate("bob", [make_segment()]) == []

    def test_channel_scoped_deny_subtracts(self):
        engine = RuleEngine(
            [
                Rule(consumers=("bob",), action=ALLOW),
                Rule(consumers=("bob",), sensors=("ECG",), action=DENY),
            ],
            PLACES,
        )
        seg = make_segment(channels=("ECG", "AccelX"), n=4)
        (released,) = engine.evaluate("bob", [seg])
        assert released.channels() == ("AccelX",)
        assert "ECG" in released.withheld

    def test_context_scoped_deny(self):
        """Alice's scenario: deny accelerometer data at home."""
        engine = RuleEngine(
            [
                Rule(consumers=("coach",), sensors=("Accelerometer",), action=ALLOW),
                Rule(
                    consumers=("coach",),
                    sensors=("Accelerometer",),
                    location_labels=("home",),
                    action=DENY,
                ),
            ],
            PLACES,
        )
        at_ucla = make_segment(channels=("AccelX",), location=UCLA)
        at_home = make_segment(channels=("AccelX",), location=HOME_POINT)
        assert engine.evaluate("coach", [at_ucla]) != []
        released_home = engine.evaluate("coach", [at_home])
        assert all(r.segment is None for r in released_home)


class TestAbstraction:
    def engine(self, *actions):
        rules = [Rule(consumers=("bob",), action=ALLOW)]
        rules += [Rule(consumers=("bob",), action=a) for a in actions]
        return RuleEngine(rules, PLACES)

    def test_location_abstraction(self):
        engine = self.engine(abstraction(Location="zipcode"))
        (released,) = engine.evaluate("bob", [make_segment()])
        assert isinstance(released.location, str)
        assert released.location.startswith("zip-")
        assert released.location_level == "zipcode"

    def test_location_notshare(self):
        engine = self.engine(abstraction(Location="NotShare"))
        (released,) = engine.evaluate("bob", [make_segment()])
        assert released.location is None

    def test_location_abstraction_blocks_gps_channels(self):
        engine = self.engine(abstraction(Location="city"))
        seg = make_segment(channels=("GpsLat", "GpsLon", "ECG"), n=4)
        (released,) = engine.evaluate("bob", [seg])
        assert set(released.channels()) == {"ECG"}
        assert "GpsLat" in released.withheld

    def test_time_truncation_reanchors_segment(self):
        engine = self.engine(abstraction(Time="day"))
        start = MONDAY + 9 * _HOUR + 1234
        (released,) = engine.evaluate("bob", [make_segment(start_ms=start)])
        assert released.timestamp == MONDAY
        assert released.segment.start_ms == MONDAY

    def test_time_notshare_zeroes_clock(self):
        engine = self.engine(abstraction(Time="NotShare"))
        (released,) = engine.evaluate("bob", [make_segment()])
        assert released.timestamp is None
        assert released.segment.start_ms == 0

    def test_activity_move_not_move(self):
        engine = self.engine(abstraction(Activity="MoveNotMove"))
        # Labels only flow for categories the granted channels reveal, so
        # the Activity label rides on an accelerometer segment.
        seg = make_segment(channels=("AccelX",), context=ctx(activity="Drive"))
        (released,) = engine.evaluate("bob", [seg])
        assert released.context_labels["Activity"] == "Moving"

    def test_context_notshare_removes_label(self):
        engine = self.engine(abstraction(Stress="NotShare"))
        seg = make_segment(channels=("AccelX",), context=ctx(stress="Stressed"))
        (released,) = engine.evaluate("bob", [seg])
        assert "Stress" not in released.context_labels

    def test_coarsest_of_multiple_rules_wins(self):
        engine = self.engine(
            abstraction(Activity="TransportMode"), abstraction(Activity="MoveNotMove")
        )
        seg = make_segment(channels=("AccelX",), context=ctx(activity="Bike"))
        (released,) = engine.evaluate("bob", [seg])
        assert released.context_labels["Activity"] == "Moving"


class TestDependencyClosure:
    def test_stress_notshare_blocks_ecg_and_respiration(self):
        engine = RuleEngine(
            [
                Rule(consumers=("bob",), action=ALLOW),
                Rule(consumers=("bob",), action=abstraction(Stress="NotShare")),
            ],
            PLACES,
        )
        seg = make_segment(channels=("ECG", "Respiration", "AccelX"), n=4)
        (released,) = engine.evaluate("bob", [seg])
        assert set(released.channels()) == {"AccelX"}
        assert "ECG" in released.withheld and "Respiration" in released.withheld
        assert "Stress" in released.withheld["ECG"]

    def test_smoking_notshare_blocks_respiration_only(self):
        """The paper's example: stress and conversation still raw, but
        respiration withheld because smoking could be re-inferred."""
        engine = RuleEngine(
            [
                Rule(consumers=("bob",), action=ALLOW),
                Rule(consumers=("bob",), action=abstraction(Smoking="NotShare")),
            ],
            PLACES,
        )
        seg = make_segment(channels=("ECG", "Respiration", "MicAmplitude"), n=4)
        (released,) = engine.evaluate("bob", [seg])
        assert set(released.channels()) == {"ECG", "MicAmplitude"}

    def test_label_level_sharing_also_blocks_raw(self):
        """Sharing stress at label level still forbids raw ECG: the label
        ladder's finest rung is the only one that permits raw sources."""
        engine = RuleEngine(
            [
                Rule(consumers=("bob",), action=ALLOW),
                Rule(consumers=("bob",), action=abstraction(Stress="StressedNotStressed")),
            ],
            PLACES,
        )
        seg = make_segment(channels=("ECG",), context=ctx(stress="Stressed"))
        (released,) = engine.evaluate("bob", [seg])
        assert released.segment is None
        assert released.context_labels["Stress"] == "Stressed"  # label still flows

    def test_closure_can_be_disabled_for_ablation(self):
        engine = RuleEngine(
            [
                Rule(consumers=("bob",), action=ALLOW),
                Rule(consumers=("bob",), action=abstraction(Smoking="NotShare")),
            ],
            PLACES,
            enforce_closure=False,
        )
        seg = make_segment(channels=("Respiration",), n=4)
        (released,) = engine.evaluate("bob", [seg])
        assert released.channels() == ("Respiration",)  # the leak C4 measures


class TestTimeSplitting:
    def test_segment_split_at_window_boundary(self):
        """An abstraction active 9-10am must not bleed outside the window."""
        window = TimeCondition(
            repeated=(RepeatedTime.weekly(["Mon"], "9:00am", "10:00am"),)
        )
        engine = RuleEngine(
            [
                Rule(consumers=("bob",), action=ALLOW),
                Rule(consumers=("bob",), time=window, action=abstraction(Stress="NotShare")),
            ],
            PLACES,
        )
        # Segment spanning 8:30-10:30, one sample per minute.
        seg = make_segment(
            start_ms=MONDAY + 8 * _HOUR + 30 * 60_000,
            n=120,
            interval_ms=60_000,
            channels=("ECG",),
            context=ctx(stress="Stressed"),
        )
        released = engine.evaluate("bob", [seg])
        # Inside the 9-10am window nothing attributable to the data can
        # flow (raw ECG closed off, the Stress label NotShared), so the
        # window's piece is suppressed entirely — two pieces remain.
        assert len(released) == 2
        before, after = released
        assert before.segment is not None and before.context_labels.get("Stress")
        assert after.segment is not None
        # 30 min before the window + 30 min after it carry raw ECG.
        assert before.n_samples == 30 and after.n_samples == 30
        # The gap between the pieces is exactly the abstraction window.
        assert before.interval.end == MONDAY + 9 * _HOUR
        assert after.interval.start == MONDAY + 10 * _HOUR

    def test_allow_limited_to_time_window(self):
        window = TimeCondition(intervals=(Interval(MONDAY, MONDAY + _HOUR),))
        engine = RuleEngine(
            [Rule(consumers=("bob",), time=window, action=ALLOW)], PLACES
        )
        seg = make_segment(start_ms=MONDAY, n=120, interval_ms=60_000)
        released = engine.evaluate("bob", [seg])
        assert len(released) == 1
        assert released[0].n_samples == 60

    def test_no_samples_outside_any_allow_window(self):
        window = TimeCondition(intervals=(Interval(MONDAY + _HOUR, MONDAY + 2 * _HOUR),))
        engine = RuleEngine(
            [Rule(consumers=("bob",), time=window, action=ALLOW)], PLACES
        )
        seg = make_segment(start_ms=MONDAY, n=30, interval_ms=60_000)
        assert engine.evaluate("bob", [seg]) == []


class TestMembership:
    def test_group_membership_resolves(self):
        engine = RuleEngine(
            [Rule(consumers=("stress-study",), action=ALLOW)],
            PLACES,
            membership=lambda c: frozenset({c, "stress-study"})
            if c == "bob"
            else frozenset({c}),
        )
        assert engine.evaluate("bob", [make_segment()]) != []
        assert engine.evaluate("carol", [make_segment()]) == []


class TestBuckets:
    def test_candidate_rules_skips_unrelated_consumers(self):
        rules = [Rule(consumers=(f"user{i}",), action=ALLOW) for i in range(50)]
        rules.append(Rule(action=DENY))  # wildcard
        engine = RuleEngine(rules, PLACES)
        candidates = engine.compiled._candidates(frozenset({"user7"}))
        assert len(candidates) == 2  # user7's rule + the wildcard


    def test_candidate_order_decides_which_deny_is_blamed(self):
        # Candidate order reaches the wire through the Withheld reasons:
        # wildcard bucket first, then principals in sorted order — not the
        # rule list's own order.  The first Deny to hit a channel is blamed.
        allow = Rule(consumers=("bob",), action=ALLOW)
        named = Rule(consumers=("bob",), sensors=("ECG",), action=DENY)
        group = Rule(consumers=("a-study",), sensors=("ECG",), action=DENY)
        wildcard = Rule(sensors=("ECG",), action=DENY)
        segment = make_segment(channels=("ECG", "AccelX"))

        def blamed(rules):
            engine = RuleEngine(
                rules, PLACES, membership=lambda c: frozenset({c, "a-study"})
            )
            (released,) = engine.evaluate("bob", [segment])
            assert released.channels() == ("AccelX",)
            return released.withheld["ECG"]

        assert blamed([allow, named, group, wildcard]) == f"denied by rule {wildcard.rule_id}"
        assert blamed([allow, named, group]) == f"denied by rule {group.rule_id}"
        assert blamed([allow, named]) == f"denied by rule {named.rule_id}"


class TestReleasedSegmentJson:
    def test_roundtrip(self):
        engine = RuleEngine([Rule(consumers=("bob",), action=ALLOW)], PLACES)
        (released,) = engine.evaluate("bob", [make_segment()])
        again = ReleasedSegment.from_json(released.to_json())
        assert again.context_labels == released.context_labels
        assert again.timestamp == released.timestamp
        assert np.array_equal(again.segment.values, released.segment.values)

    def test_label_only_roundtrip(self):
        engine = RuleEngine(
            [
                Rule(consumers=("bob",), action=ALLOW),
                Rule(consumers=("bob",), action=abstraction(Stress="StressedNotStressed")),
            ],
            PLACES,
        )
        (released,) = engine.evaluate("bob", [make_segment(channels=("ECG",))])
        again = ReleasedSegment.from_json(released.to_json())
        assert again.segment is None
        assert again.context_labels["Stress"] == "NotStressed"


class TestNonUniformSegments:
    """The engine must shape per-sample-timestamp (adaptive) segments too."""

    def _nonuniform(self):
        import numpy as np
        from repro.datastore.wavesegment import TIME_CHANNEL, WaveSegment

        times = np.array([0.0, 700.0, 5_000.0, 61_000.0]) + MONDAY
        blob = np.column_stack([times, np.array([1.0, 2.0, 3.0, 4.0])])
        return WaveSegment(
            contributor="alice",
            channels=(TIME_CHANNEL, "ECG"),
            start_ms=int(times[0]),
            interval_ms=None,
            values=blob,
            location=UCLA,
            context=ctx(),
        )

    def test_plain_allow_passes_through(self):
        engine = RuleEngine([Rule(consumers=("bob",), action=ALLOW)], PLACES)
        (released,) = engine.evaluate("bob", [self._nonuniform()])
        assert released.segment is not None
        assert list(released.segment.sample_times())[0] == MONDAY

    def test_time_abstraction_shifts_embedded_stamps(self):
        """Coarsening Time must rewrite the blob's Time column, not just
        the metadata — otherwise raw stamps leak through the blob."""
        engine = RuleEngine(
            [
                Rule(consumers=("bob",), action=ALLOW),
                Rule(consumers=("bob",), action=abstraction(Time="day")),
            ],
            PLACES,
        )
        seg = self._nonuniform()
        (released,) = engine.evaluate("bob", [seg])
        day_start = timestamp_ms(2011, 2, 7)
        times = list(released.segment.sample_times())
        assert times[0] == day_start
        # Relative spacing preserved, absolute clock coarsened.
        assert times[1] - times[0] == 700

    def test_time_notshare_zeroes_embedded_stamps(self):
        engine = RuleEngine(
            [
                Rule(consumers=("bob",), action=ALLOW),
                Rule(consumers=("bob",), action=abstraction(Time="NotShare")),
            ],
            PLACES,
        )
        (released,) = engine.evaluate("bob", [self._nonuniform()])
        times = list(released.segment.sample_times())
        assert times[0] == 0
        assert released.timestamp is None
