"""Per-rule condition matching, observed through the engine.

Each case puts one condition on an otherwise unconditional Allow: the
condition matches exactly when the segment is released.
"""

from repro.rules.engine import RuleEngine
from repro.rules.model import ALLOW, Rule
from repro.util.geo import BoundingBox, LabeledPlace, LatLon

from tests.conftest import UCLA, make_segment

PLACES = {
    "UCLA": LabeledPlace("UCLA", BoundingBox(34.0, -118.5, 34.1, -118.4)),
    "home": LabeledPlace("home", BoundingBox(34.02, -118.48, 34.04, -118.46)),
}


def matches(segment=None, *, principals=("bob",), places=PLACES, **conditions) -> bool:
    """Does an Allow carrying ``conditions`` release ``segment``?"""
    engine = RuleEngine(
        [Rule(action=ALLOW, **conditions)],
        places,
        membership=lambda _consumer: frozenset(principals),
    )
    return bool(engine.evaluate("bob", [segment or make_segment()]))


class TestConsumer:
    def test_empty_condition_matches_anyone(self):
        assert matches(principals=("whoever",))

    def test_name_match(self):
        assert matches(consumers=("bob",), principals=("bob",))
        assert not matches(consumers=("bob",), principals=("carol",))

    def test_group_membership_match(self):
        assert matches(consumers=("stress-study",), principals=("bob", "stress-study"))


class TestLocation:
    def test_unconstrained(self):
        assert matches(make_segment(location=None))
        assert matches(make_segment(location=UCLA), places={})

    def test_label_resolution(self):
        assert matches(make_segment(location=UCLA), location_labels=("UCLA",))
        away = make_segment(location=LatLon(35.0, -118.0))
        assert not matches(away, location_labels=("UCLA",))

    def test_undefined_label_never_matches(self):
        assert not matches(make_segment(location=UCLA), location_labels=("mars",))

    def test_region_condition(self):
        region = BoundingBox(34.0, -118.5, 34.1, -118.4)
        assert matches(make_segment(location=UCLA), places={}, location_regions=(region,))

    def test_unknown_location_fails_constrained_rules(self):
        assert not matches(make_segment(location=None), location_labels=("UCLA",))

    def test_label_or_region_is_or(self):
        # The region matches, the label does not.
        assert matches(
            make_segment(location=UCLA),
            location_labels=("home",),
            location_regions=(BoundingBox(34.0, -118.5, 34.1, -118.4),),
        )


class TestContext:
    CTX = {"Activity": "Drive", "Stress": "Stressed", "Conversation": "NotConversation"}

    def seg(self):
        return make_segment(context=self.CTX)

    def test_unconstrained(self):
        assert matches(make_segment(context={}))

    def test_single_label(self):
        assert matches(self.seg(), contexts=("Drive",))
        assert not matches(self.seg(), contexts=("Walk",))

    def test_or_within_category(self):
        assert matches(self.seg(), contexts=("Walk", "Drive"))

    def test_and_across_categories(self):
        assert matches(self.seg(), contexts=("Drive", "Stress"))
        assert not matches(self.seg(), contexts=("Drive", "Conversation"))

    def test_moving_meta_label(self):
        assert matches(self.seg(), contexts=("Moving",))
        assert not matches(self.seg(), contexts=("NotMoving",))

    def test_unannotated_category_never_matches(self):
        assert not matches(self.seg(), contexts=("Smoke",))


class TestSensorOverlap:
    def test_unconstrained(self):
        assert matches(make_segment(channels=("ECG",)))

    def test_overlap_and_disjoint(self):
        assert matches(make_segment(channels=("AccelX",)), sensors=("Accelerometer",))
        assert not matches(make_segment(channels=("ECG",)), sensors=("Accelerometer",))


class TestRuleApplies:
    def test_all_conditions_conjoined(self):
        conditions = dict(
            consumers=("bob",),
            location_labels=("UCLA",),
            contexts=("Still",),
            sensors=("ECG",),
        )
        seg = make_segment(channels=("ECG",), location=UCLA)
        assert matches(seg, principals=("bob",), **conditions)
        assert not matches(seg, principals=("carol",), **conditions)
        away = make_segment(channels=("ECG",), location=LatLon(35.0, -118.0))
        assert not matches(away, principals=("bob",), **conditions)
