"""A region decides a release and a selection the same way end to end.

One contributor, one stored segment captured 1,668 m from the centre of
a 5 km circle that straddles the antimeridian.  Through the real query
path the consumer's Deny inside that circle wins, the owner's delete by
it removes the segment, and a continent-sized map selection costs one
containment test per candidate rather than a walk of its area.
"""

import time

from repro.conformance.generators import Trial
from repro.conformance.runner import end_to_end_violations
from repro.core import SensorSafeSystem
from repro.datastore.query import DataQuery
from repro.rules.model import ALLOW, DENY, Rule
from repro.util.geo import BoundingBox, CircleRegion, LatLon

from tests.conftest import UCLA, make_segment

CIRCLE = CircleRegion(LatLon(0.0, 179.99), 5_000.0)
SAMPLE_AT = LatLon(0.0, -179.995)


def _world(rules, location=SAMPLE_AT):
    system = SensorSafeSystem(seed=7)
    alice = system.add_contributor("alice")
    bob = system.add_consumer("bob")
    bob.add_contributors(["alice"])
    for rule in rules:
        alice.add_rule(rule)
    alice.upload_segments([make_segment(location=location)])
    alice.flush()
    return alice, bob


def test_a_deny_across_the_antimeridian_releases_nothing():
    rules = [
        Rule(consumers=("bob",), action=ALLOW),
        Rule(consumers=("bob",), location_regions=(CIRCLE,), action=DENY),
    ]
    _, bob = _world(rules)
    assert bob.fetch("alice") == []
    trial = Trial(seed="antimeridian", rules=rules, segments=[make_segment(location=SAMPLE_AT)])
    assert end_to_end_violations(trial) == []


def test_the_owner_deletes_by_an_antimeridian_circle():
    alice, bob = _world([Rule(consumers=("bob",), action=ALLOW)])
    assert alice.delete_data(DataQuery(region=CIRCLE)) == 1
    assert bob.fetch("alice") == []


def test_a_large_map_selection_costs_its_candidates_not_its_area():
    _, bob = _world([Rule(consumers=("bob",), action=ALLOW)], location=UCLA)
    for half_width in (5.0, 20.0):
        box = BoundingBox(
            UCLA.lat - half_width, UCLA.lon - half_width,
            UCLA.lat + half_width, UCLA.lon + half_width,
        )
        started = time.perf_counter()
        released = bob.fetch("alice", DataQuery(region=box))
        elapsed = time.perf_counter() - started
        assert len(released) == 1
        assert elapsed < 0.05, f"±{half_width:g}° fetch took {elapsed * 1e3:.1f} ms"
