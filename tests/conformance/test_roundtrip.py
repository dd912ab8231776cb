"""Round-trip serialization over generated corpora.

The generators produce adversarial instances (wrapping windows, zero-length
intervals, non-uniform segments, unicode-free but structurally odd rules),
so these round-trips cover corners hand-written fixtures miss.

Comparison is at the JSON level — ``to_json(from_json(j)) == j`` — because
some serializations normalize equivalent forms (e.g. a repeated window
ending at minute 1440 re-parses as minute 0: the same predicate).
"""

from __future__ import annotations

from repro.conformance.generators import TrialGenerator, trial_from_json, trial_to_json
from repro.conformance.runner import build_engine
from repro.datastore.query import DataQuery, QueryResult
from repro.rules.engine import ReleasedSegment, decode_release, encode_release
from repro.rules.parser import rule_from_json, rule_to_json

N = 60
SEED = 1234


def _rngs():
    generator = TrialGenerator(SEED)
    return generator, [generator.rng_for(i) for i in range(N)]


def test_rule_roundtrip():
    generator, rngs = _rngs()
    for rng in rngs:
        places = generator.gen_places(rng)
        rule = generator.gen_rule(rng, places)
        obj = rule_to_json(rule)
        rebuilt = rule_from_json(obj)
        assert rule_to_json(rebuilt) == obj
        assert rebuilt.rule_id == rule.rule_id


def test_query_roundtrip():
    generator, rngs = _rngs()
    for rng in rngs:
        query = generator.gen_query(rng)
        obj = query.to_json()
        rebuilt = DataQuery.from_json(obj)
        assert rebuilt.to_json() == obj
        assert rebuilt.expanded_channels() == query.expanded_channels()


def test_query_result_roundtrip():
    generator, rngs = _rngs()
    for rng in rngs:
        result = generator.gen_query_result(rng)
        obj = result.to_json()
        rebuilt = QueryResult.from_json(obj)
        assert rebuilt.to_json() == obj
        assert rebuilt.n_samples == result.n_samples


def test_segment_roundtrip_via_trials():
    generator = TrialGenerator(SEED)
    for trial in generator.trials(30):
        obj = trial_to_json(trial)
        rebuilt = trial_from_json(obj)
        assert trial_to_json(rebuilt) == obj
        for original, copy in zip(trial.segments, rebuilt.segments):
            assert copy.segment_id == original.segment_id
            assert copy.interval == original.interval


def test_released_segment_roundtrip():
    generator = TrialGenerator(SEED)
    seen = 0
    for trial in generator.trials(40):
        engine = build_engine(trial)
        for segment in trial.segments:
            for piece in engine.evaluate_segment(trial.consumer, segment):
                obj = piece.to_json()
                rebuilt = ReleasedSegment.from_json(obj)
                assert rebuilt.to_json() == obj
                seen += 1
    assert seen >= 20  # the corpus must actually exercise releases


def test_release_frame_roundtrip():
    """A whole batch release through the frame, over the adversarial corpus
    (non-uniform segments, label-only pieces, re-anchored clocks)."""
    generator = TrialGenerator(SEED)
    seen = 0
    for trial in generator.trials(40):
        released = build_engine(trial).evaluate(trial.consumer, trial.segments)
        decoded = decode_release(encode_release(released))
        assert [p.to_json() for p in decoded] == [p.to_json() for p in released]
        seen += len(released)
    assert seen >= 20
