"""The rule compiler: boundaries + compile/invalidation lifecycle.

Two layers of coverage for :mod:`repro.rules.compiler`:

* **Boundary units** — time windows touching span edges and wrapping
  midnight, locations exactly on spatial-grid cell borders, empty and
  one-rule contributors, and consumers with no bucket.  Each case runs
  the engine and asserts the release against the brute-force oracle
  (``diff_segment``) and the output invariants (``check_release``).

* **Batch prune units** — timed rules whose windows touch the batch
  span's edges, fall between two segments, or cross midnight inside a
  multi-day batch: the batch release must equal the per-segment releases
  (which the oracle checks), and ``compiled_time_prunes_total`` says
  whether the batch window dropped the rule.

* **Lifecycle properties** — a store driven through random
  interleavings of rule publish/remove, places edits, and membership
  flips, plus a crash/recovery boundary and a promotion: what it serves
  must always equal what a **freshly compiled** engine releases over the
  segments the release guard observed — it must never serve from a stale
  artifact.  This mirrors the release-cache epoch argument: the artifact
  key folds in the store-wide ``rules_version``, which moves on every
  mutation, every restore and every places assignment, and in the
  fail-closed flag; recovery alone also drops the cache wholesale.
"""

import random

import pytest

from dataclasses import replace

from repro.conformance.generators import Trial, TrialGenerator
from repro.conformance.runner import build_engine, run_trial
from repro.datastore.query import DataQuery
from repro.datastore.wavesegment import WaveSegment
from repro.net.transport import Network
from repro.obs import Observability
from repro.rules.compiler import (
    CompiledRuleCache,
    CompiledRuleSet,
    compile_rules,
)
from repro.rules.model import Action, Rule
from repro.server.datastore_service import DataStoreService
from repro.storage import records
from repro.util import jsonutil
from repro.util.geo import BoundingBox, LatLon, PolygonRegion
from repro.util.timeutil import Interval, RepeatedTime, TimeCondition
from tests.conftest import released_pieces

HOST = "compiled-twin"

_MINUTE = 60_000
_DAY = 86_400_000
# Monday 2011-02-07 00:00:00 UTC — the conformance corpus epoch.
BASE_MS = 1_297_036_800_000


def _segment(start, n=10, interval=1000, channels=("Respiration", "ECG"),
             location=None, context=None):
    import numpy as np

    values = np.arange(n * len(channels), dtype=np.float64).reshape(n, len(channels))
    return WaveSegment(
        contributor="alice",
        channels=tuple(channels),
        start_ms=start,
        interval_ms=interval,
        values=values,
        location=location,
        context=dict(context or {}),
    )


def _payload(engine, consumer, segment):
    return jsonutil.canonical_dumps(
        [p.to_json() for p in engine.evaluate_segment(consumer, segment)]
    )


def assert_conforms(rules, segment, *, consumer="bob"):
    """The release agrees with the oracle and holds every invariant."""
    trial = Trial(seed="boundary", rules=list(rules), segments=[segment], consumer=consumer)
    result = run_trial(trial)
    assert result.ok, result.to_json()
    return _payload(build_engine(trial), consumer, segment)


# ----------------------------------------------------------------------
# Boundary units: time
# ----------------------------------------------------------------------


def test_window_exactly_covering_span():
    seg = _segment(BASE_MS, n=10, interval=1000)
    rules = [
        Rule(time=TimeCondition((Interval(BASE_MS, BASE_MS + 10_000),)),
             action=Action("allow"))
    ]
    released = assert_conforms(rules, seg)
    assert released != "[]"  # the full span flows


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_window_end_touching_span_edges(offset):
    # Window ends one ms before, exactly at, and one ms past the span end.
    seg = _segment(BASE_MS, n=10, interval=1000)
    end = BASE_MS + 10_000 + offset
    rules = [
        Rule(time=TimeCondition((Interval(BASE_MS - 5_000, end),)),
             action=Action("allow"))
    ]
    assert_conforms(rules, seg)


def test_window_boundary_exactly_on_sample_instant():
    # The window ends exactly on the 5th sample: the sample belongs to
    # the piece *after* the boundary (half-open), which has no Allow.
    seg = _segment(BASE_MS, n=10, interval=1000)
    rules = [
        Rule(time=TimeCondition((Interval(BASE_MS, BASE_MS + 5_000),)),
             action=Action("allow"))
    ]
    assert_conforms(rules, seg)


def test_zero_length_window_matches_nothing():
    seg = _segment(BASE_MS, n=4, interval=1000)
    degenerate = Interval(BASE_MS + 2_000, BASE_MS + 2_000)
    rules = [Rule(time=TimeCondition((degenerate,)), action=Action("allow"))]
    assert assert_conforms(rules, seg) == "[]"
    art = compile_rules(rules)
    assert art.compiled[0].static_windows == ()  # dropped at compile time


def test_midnight_wrap_repeated_window():
    # 23:50 → 00:10 wraps midnight; a span straddling midnight Mon→Tue
    # splits exactly at the wrap edges.
    seg = _segment(BASE_MS + _DAY - 15 * _MINUTE, n=24, interval=_MINUTE)
    rules = [
        Rule(
            time=TimeCondition(
                repeated=(RepeatedTime(frozenset({"Mon", "Tue"}), 23 * 60 + 50, 10),)
            ),
            action=Action("allow"),
        )
    ]
    assert_conforms(rules, seg)


def test_degenerate_equal_minutes_is_full_day():
    seg = _segment(BASE_MS + 3 * 60 * _MINUTE, n=8, interval=1000)
    rules = [
        Rule(
            time=TimeCondition(repeated=(RepeatedTime(frozenset({"Mon"}), 300, 300),)),
            action=Action("allow"),
        )
    ]
    released = assert_conforms(rules, seg)
    assert released != "[]"  # equal minutes = the whole matching day


def test_weekday_windows_only_fire_on_their_day():
    # Tuesday-only window, Monday segment: nothing flows.
    seg = _segment(BASE_MS + 10 * _MINUTE, n=5, interval=1000)
    rules = [
        Rule(
            time=TimeCondition(repeated=(RepeatedTime(frozenset({"Tue"}), 0, 60),)),
            action=Action("allow"),
        )
    ]
    assert assert_conforms(rules, seg) == "[]"


# ----------------------------------------------------------------------
# Boundary units: location conditions
# ----------------------------------------------------------------------

#: Region edges on multiples of this sit on the cell borders of any 0.05°
#: lat/lon grid: a point there must get the region's own answer.
CELL_DEGREES = 0.05


def _cell_border_box():
    """A polygon region whose edges sit exactly on 0.05° cell borders."""
    south = -90.0 + 680 * CELL_DEGREES
    west = -180.0 + 1230 * CELL_DEGREES
    box = BoundingBox(south, west, south + 2 * CELL_DEGREES, west + 2 * CELL_DEGREES)
    return PolygonRegion(
        (
            LatLon(box.south, box.west),
            LatLon(box.south, box.east),
            LatLon(box.north, box.east),
            LatLon(box.north, box.west),
        )
    )


@pytest.mark.parametrize("corner", ["south-west", "north-east", "center"])
def test_location_exactly_on_grid_cell_border(corner):
    region = _cell_border_box()
    box = region.bounding_box()
    point = {
        "south-west": LatLon(box.south, box.west),
        "north-east": LatLon(box.north, box.east),
        "center": LatLon((box.south + box.north) / 2, (box.west + box.east) / 2),
    }[corner]
    seg = _segment(BASE_MS, n=5, location=point)
    rules = [Rule(location_regions=(region,), action=Action("allow"))]
    released = assert_conforms(rules, seg)
    # The ray-cast includes the south-west edges and excludes north-east
    # ones; either way the engine must agree with the oracle's exact region
    # test — the oracle check above is the load-bearing assertion.
    if corner in ("south-west", "center"):
        assert released != "[]"


def test_location_just_outside_grid_indexed_region():
    region = _cell_border_box()
    box = region.bounding_box()
    outside = LatLon(box.north + 1e-9, box.east + 1e-9)
    seg = _segment(BASE_MS, n=5, location=outside)
    rules = [Rule(location_regions=(region,), action=Action("allow"))]
    assert assert_conforms(rules, seg) == "[]"


def test_oversized_region_skips_the_grid_but_still_matches():
    # A near-hemisphere region is tested like any other: it matches.
    region = PolygonRegion(
        (LatLon(-60, -170), LatLon(-60, 170), LatLon(60, 170), LatLon(60, -170))
    )
    seg = _segment(BASE_MS, n=5, location=LatLon(10.0, 10.0))
    rules = [Rule(location_regions=(region,), action=Action("allow"))]
    assert assert_conforms(rules, seg) != "[]"


def test_location_condition_with_no_location_never_matches():
    region = _cell_border_box()
    seg = _segment(BASE_MS, n=5, location=None)
    rules = [Rule(location_regions=(region,), action=Action("allow"))]
    assert assert_conforms(rules, seg) == "[]"


# ----------------------------------------------------------------------
# Boundary units: buckets and contributors
# ----------------------------------------------------------------------


def test_empty_contributor_is_default_deny():
    seg = _segment(BASE_MS, n=3)
    assert assert_conforms([], seg) == "[]"
    art = compile_rules(())
    assert art.evaluate_segment(frozenset({"bob"}), seg) == []


def test_one_rule_contributor():
    seg = _segment(BASE_MS, n=3)
    assert assert_conforms([Rule(action=Action("allow"))], seg) != "[]"


def test_consumer_with_no_bucket_is_default_deny():
    seg = _segment(BASE_MS, n=3)
    rules = [Rule(consumers=("carol",), action=Action("allow"))]
    assert assert_conforms(rules, seg, consumer="bob") == "[]"
    assert assert_conforms(rules, seg, consumer="carol") != "[]"


def test_batch_evaluation_matches_per_segment():
    gen = TrialGenerator(17)
    trial = gen.trial(4)
    art = compile_rules(trial.rules, trial.places)
    principals = trial.principals()
    batch = art.evaluate_batch(principals, trial.segments)
    singles = [
        piece
        for segment in trial.segments
        for piece in art.evaluate_segment(principals, segment)
    ]
    assert [p.to_json() for p in batch] == [p.to_json() for p in singles]


# ----------------------------------------------------------------------
# Batch-level time pruning
# ----------------------------------------------------------------------


def assert_batch_conforms(rules, segments, *, consumer="bob"):
    """Oracle-check the batch and return ``(payload, rules time-pruned)``.

    ``run_trial`` diffs every segment against the oracle and requires the
    one-batch release to equal the per-segment releases.
    """
    trial = Trial(seed="batch", rules=list(rules), segments=list(segments), consumer=consumer)
    result = run_trial(trial)
    assert result.ok, result.to_json()
    obs = Observability()
    art = compile_rules(rules, obs=obs)
    released = art.evaluate_batch(trial.principals(), iter(segments))
    pruned = obs.metrics.counter_value("compiled_time_prunes_total")
    return jsonutil.canonical_dumps([p.to_json() for p in released]), pruned


def _timed(action, start, end):
    return Rule(time=TimeCondition((Interval(start, end),)), action=Action(action))


@pytest.mark.parametrize(
    "window, pruned",
    [
        ((BASE_MS - 5_000, BASE_MS), 1),  # ends exactly at the batch start
        ((BASE_MS - 5_000, BASE_MS + 1), 0),  # reaches one ms into it
        ((BASE_MS + 30_000, BASE_MS + 40_000), 1),  # starts exactly at the batch end
        ((BASE_MS + 29_999, BASE_MS + 40_000), 0),  # starts one ms before it
    ],
)
def test_window_touching_the_batch_span_is_half_open(window, pruned):
    segments = [_segment(BASE_MS, n=10), _segment(BASE_MS + 20_000, n=10)]
    rules = [Rule(action=Action("allow")), _timed("deny", *window)]
    payload, time_pruned = assert_batch_conforms(rules, segments)
    assert time_pruned == pruned
    assert payload != "[]"


def test_window_in_the_gap_between_two_segments():
    # Inside the batch span, so the batch window keeps the rule; it then
    # clips to nothing in either segment and must not split or deny them.
    segments = [_segment(BASE_MS, n=10), _segment(BASE_MS + 20_000, n=10)]
    allow = Rule(action=Action("allow"))
    gap_deny = _timed("deny", BASE_MS + 12_000, BASE_MS + 18_000)
    payload, time_pruned = assert_batch_conforms([allow, gap_deny], segments)
    assert time_pruned == 0
    assert payload == assert_batch_conforms([allow], segments)[0]


def test_weekly_window_crossing_midnight_in_a_multi_day_batch():
    # Mon/Tue 23:50 → 00:10 over a Monday-to-Wednesday batch: the first
    # segment straddles Monday midnight, the second sits mid-Tuesday
    # (no window), the third straddles Tuesday midnight.
    rules = [
        Rule(action=Action("allow")),
        Rule(
            time=TimeCondition(
                repeated=(RepeatedTime(frozenset({"Mon", "Tue"}), 23 * 60 + 50, 10),)
            ),
            action=Action("deny"),
        ),
    ]
    segments = [
        _segment(BASE_MS + _DAY - 15 * _MINUTE, n=30, interval=_MINUTE),
        _segment(BASE_MS + _DAY + 12 * 60 * _MINUTE, n=30, interval=_MINUTE),
        _segment(BASE_MS + 2 * _DAY - 15 * _MINUTE, n=30, interval=_MINUTE),
    ]
    payload, time_pruned = assert_batch_conforms(rules, segments)
    assert time_pruned == 0
    pieces = jsonutil.loads(payload)
    # A wrapping window covers 00:00-00:10 and 23:50-24:00 of each named
    # day, so Wednesday's first ten minutes flow where Tuesday's did not.
    assert [p["Segment"]["Values"]["Samples"] for p in pieces] == [5, 5, 30, 5, 15]


def test_pruned_timed_allow_is_default_deny():
    segments = [_segment(BASE_MS, n=10), _segment(BASE_MS + 20_000, n=10)]
    rules = [_timed("allow", BASE_MS + _DAY, BASE_MS + 2 * _DAY)]
    payload, time_pruned = assert_batch_conforms(rules, segments)
    assert (payload, time_pruned) == ("[]", 1)


def test_prune_keeps_the_withheld_blame_order():
    # Two scoped Denys over the same channel: the earlier rule is blamed.
    # Pruning an unrelated timed rule between them must not reorder that.
    segments = [_segment(BASE_MS, n=10)]
    first = Rule(sensors=("ECG",), action=Action("deny"))
    elsewhere = _timed("deny", BASE_MS + _DAY, BASE_MS + 2 * _DAY)
    second = Rule(sensors=("ECG",), action=Action("deny"))
    rules = [Rule(action=Action("allow")), first, elsewhere, second]
    payload, time_pruned = assert_batch_conforms(rules, segments)
    assert time_pruned == 1
    (piece,) = jsonutil.loads(payload)
    assert piece["Withheld"] == {"ECG": f"denied by rule {first.rule_id}"}


def test_batch_accepts_a_one_shot_generator():
    segments = [_segment(BASE_MS, n=10), _segment(BASE_MS + 20_000, n=10)]
    art = compile_rules([Rule(action=Action("allow"))])
    principals = frozenset({"bob"})
    from_generator = art.evaluate_batch(principals, (s for s in segments))
    assert [p.to_json() for p in from_generator] == [
        p.to_json() for p in art.evaluate_batch(principals, segments)
    ]
    assert len(from_generator) == 2
    assert art.evaluate_batch(principals, iter(())) == []


# ----------------------------------------------------------------------
# Artifact cache: the epoch key
# ----------------------------------------------------------------------


def test_cache_recompiles_on_epoch_move():
    cache = CompiledRuleCache()
    rules = (Rule(action=Action("allow")),)
    a = cache.artifact_for("alice", epoch=1, fail_closed=False, rules=rules)
    b = cache.artifact_for("alice", epoch=1, fail_closed=False, rules=rules)
    assert a is b  # hit on the same epoch
    c = cache.artifact_for("alice", epoch=2, fail_closed=False, rules=rules)
    assert c is not a  # epoch move forces a recompile


def test_cache_keys_on_fail_closed_flag():
    cache = CompiledRuleCache()
    rules = (Rule(action=Action("allow")),)
    open_ = cache.artifact_for("alice", epoch=1, fail_closed=False, rules=rules)
    closed = cache.artifact_for("alice", epoch=1, fail_closed=True, rules=())
    assert closed is not open_
    assert closed.compiled == ()


def test_cache_capacity_evicts_lru():
    cache = CompiledRuleCache(capacity=2)
    for name in ("a", "b", "c"):
        cache.artifact_for(name, epoch=1, fail_closed=False, rules=())
    assert len(cache) == 2


# ----------------------------------------------------------------------
# Lifecycle: served payload vs a freshly compiled engine
# ----------------------------------------------------------------------


def _load(service, trial):
    service.register_contributor(trial.contributor)
    key = service.register_consumer(
        trial.consumer, groups=trial.memberships.get(trial.consumer, ())
    )
    service.set_places(trial.contributor, trial.places)
    service.rules.replace_all(trial.contributor, trial.rules)
    for segment in trial.segments:
        service.store.add_segment(segment)
    service.store.flush()
    return key


def _query(service, key, trial, query):
    body = service.network.request(
        "POST",
        f"https://{service.host}/api/query",
        {"Contributor": trial.contributor, "Query": query.to_json(), "ApiKey": key},
    ).body
    assert "Error" not in body, body
    return body


def _assert_served_fresh(service, key, trial, query):
    """The store serves what an engine compiled *now* from ``trial`` would.

    ``trial`` carries the rules, places and memberships the store should
    currently be enforcing; the reference engine is built from them and
    run over the segments the release guard saw the store serve.
    """
    events = []
    service.release_guards.append(events.append)
    try:
        body = _query(service, key, trial, query)
    finally:
        service.release_guards.remove(events.append)
    (event,) = events
    fresh = build_engine(trial).evaluate(trial.consumer, event.segments)
    assert released_pieces(body) == [piece.to_json() for piece in fresh]


def test_twin_stores_agree_under_random_interleavings():
    """Publish/remove/places/membership churn: served == freshly compiled."""
    generator = TrialGenerator(6021)
    gen = TrialGenerator(88)
    comparisons = 0
    for index in range(12):
        trial = generator.trial(index)
        rng = random.Random(f"compiled-lifecycle:{index}")
        service = DataStoreService(HOST, Network(), seed=0)
        key = _load(service, trial)
        query = DataQuery()
        for _ in range(6):
            _assert_served_fresh(service, key, trial, query)
            comparisons += 1
            kind = rng.choice(("add_rule", "drop_rule", "places", "membership"))
            if kind == "add_rule":
                trial = replace(trial, rules=trial.rules + [gen.gen_rule(rng, trial.places)])
                service.rules.replace_all(trial.contributor, trial.rules)
            elif kind == "drop_rule" and trial.rules:
                rules = list(trial.rules)
                rules.pop(rng.randrange(len(rules)))
                trial = replace(trial, rules=rules)
                service.rules.replace_all(trial.contributor, trial.rules)
            elif kind == "places":
                places = dict(trial.places)
                if places and rng.random() < 0.5:
                    places.pop(rng.choice(sorted(places)))
                trial = replace(trial, places=places)
                service.set_places(trial.contributor, trial.places)
            elif kind == "membership":
                groups = set(trial.memberships.get(trial.consumer, frozenset()))
                groups.symmetric_difference_update({rng.choice(("study-x", "labmates"))})
                trial = replace(
                    trial, memberships={trial.consumer: frozenset(groups)}
                )
                # A complete role row, as a primary ships it: the toggle
                # takes a group away as well as adding one.
                row = {"Principal": trial.consumer, "Role": "consumer", "Groups": sorted(groups)}
                records.apply(service, records.OP_ROLE, row, journal=False)
        _assert_served_fresh(service, key, trial, query)
        comparisons += 1
    assert comparisons >= 80
    # The sweep proves staleness-freedom only if artifacts were reused
    # between mutations *and* recompiled after them.
    compiles = service.network.obs.metrics.counter_value(
        "rules_compile_total", store=HOST
    )
    assert compiles >= 1


def test_compiled_cache_hits_between_mutations():
    # Release cache off, so every query reaches _engine_for and the
    # compiled-artifact cache is what absorbs the repeats.
    trial = TrialGenerator(6022).trial(1)
    service = DataStoreService(HOST, Network(), seed=0, cache_capacity=0)
    key = _load(service, trial)
    query = DataQuery()
    for _ in range(4):
        _query(service, key, trial, query)
    metrics = service.network.obs.metrics
    assert metrics.counter_value("compiled_cache_hits_total", store=HOST) >= 1
    compiled_before = metrics.counter_value("rules_compile_total", store=HOST)
    # A rule publish moves the epoch: the next query must recompile.
    service.rules.add(trial.contributor, Rule(action=Action("deny")))
    _query(service, key, trial, query)
    assert metrics.counter_value("rules_compile_total", store=HOST) > compiled_before


def test_recovery_invalidates_compiled_artifacts(tmp_path):
    """Crash + recovery: nothing compiled pre-crash may survive."""
    trial = TrialGenerator(6023).trial(2)
    directory = str(tmp_path / "compiled-recovery")
    service = DataStoreService(
        HOST, Network(), seed=0, directory=directory, durable=True
    )
    key = _load(service, trial)
    query = DataQuery()
    _query(service, key, trial, query)
    assert len(service.compiled_rules) >= 1
    service._wal_commit()

    restarted = DataStoreService(
        HOST, Network(), seed=0, directory=directory, durable=True
    )
    # A restarted process starts with an empty cache.
    assert len(restarted.compiled_rules) == 0
    # The consumer's groups came back with its role row: re-enrolling
    # issues a key and clears none of them.
    key2 = restarted.register_consumer(trial.consumer)
    _assert_served_fresh(restarted, key2, trial, query)


def test_promotion_fence_recompiles_to_default_deny():
    """Promotion drops nothing wholesale: a contributor the fence denies
    moves the epoch and the fail-closed flag, so the next lookup compiles
    a fresh default-deny artifact; everyone else's artifact stays a hit."""
    trial = TrialGenerator(6024).trial(0)
    service = DataStoreService(HOST, Network(), seed=0)
    key = _load(service, trial)
    _query(service, key, trial, DataQuery())
    assert len(service.compiled_rules) >= 1
    ahead = service.rules.version_of(trial.contributor) + 1
    promoted = service.promote(service.epoch + 1, {trial.contributor: ahead})
    assert promoted["FailClosed"] == [trial.contributor]
    assert service._engine_for(trial.contributor).compiled.compiled == ()


def test_fail_closed_contributor_compiles_to_default_deny():
    trial = TrialGenerator(6025).trial(1)
    service = DataStoreService(HOST, Network(), seed=0)
    key = _load(service, trial)
    service.fail_closed.add(trial.contributor)
    body = service.network.request(
        "POST",
        f"https://{service.host}/api/query",
        {
            "Contributor": trial.contributor,
            "Query": DataQuery().to_json(),
            "ApiKey": key,
        },
    ).body
    assert released_pieces(body) == []
    engine = service._engine_for(trial.contributor)
    assert engine.compiled.compiled == ()
