"""A piece's rule decision is taken once per artifact.

Within one :class:`~repro.rules.compiler.CompiledRuleSet` what a piece may
release — full deny, the granted channels, the withheld reasons, the
eligible label categories and the folded abstraction levels — depends on
nothing but the segment's channel mask and the indices of the piece's
matching rules, so the artifact memoizes it under exactly that key.
These tests hold the memo to living in its artifact alone, bounded like
the candidate memo, empty in a mutated copy, invisible in what is
released and in what is counted, and never sharing a ``withheld`` dict
between two pieces.
"""

import json

import numpy as np
import pytest

from repro.datastore.wavesegment import WaveSegment
from repro.obs import Observability
from repro.rules import compiler
from repro.rules.compiler import compile_rules
from repro.rules.engine import RuleEngine
from repro.rules.model import ALLOW, DENY, Rule, abstraction
from repro.util.timeutil import Interval, TimeCondition

from tests.conftest import MONDAY, UCLA

MINUTE = 60_000

#: (start, end) minutes past MONDAY of the fixed query set; the last
#: repeats the first, so it is decided from the memo alone.
WINDOWS = [(0, 90), (3, 33), (12, 47), (44, 61), (0, 90)]

#: The compiled-engine counters over WINDOWS, as the engine counted them
#: before it memoized decisions.
COUNTERS = {
    "compiled_bucket_skips_total": 0,
    "compiled_default_deny_total": 0,
    "compiled_eval_batches_total": 5,
    "compiled_eval_segments_total": 22,
    "compiled_full_deny_short_circuits_total": 27,
    "compiled_time_prunes_total": 19,
    "rule_evaluations_total": 22,
}


def _within(start: int, end: int) -> TimeCondition:
    return TimeCondition(intervals=(Interval(MONDAY + start * MINUTE, MONDAY + end * MINUTE),))


def fixed_rules() -> list:
    """A grant, a context abstraction, a scoped deny, a timed abstraction
    and a one-minute unscoped deny in every ten."""
    rules = [
        Rule(consumers=("bob",), action=ALLOW, rule_id="allow"),
        Rule(consumers=("bob",), contexts=("Drive",), action=abstraction(Stress="NotShare"),
             rule_id="drive"),
        Rule(consumers=("bob",), sensors=("Respiration",), action=DENY, time=_within(20, 50),
             rule_id="no-resp"),
        Rule(consumers=("bob",), action=abstraction(Location="zipcode", Time="minute"),
             time=_within(40, 70), rule_id="coarse"),
    ]
    for k in range(9):
        rules.append(
            Rule(consumers=("bob",), action=DENY, time=_within(10 * k + 5, 10 * k + 6),
                 rule_id=f"gap-{k}")
        )
    return rules


def fixed_segments() -> list:
    contexts = ({"Activity": "Drive", "Stress": "Stressed"},
                {"Activity": "Still", "Smoking": "NotSmoking"})
    out = []
    for i in range(6):
        channels = ("ECG", "Respiration") if i % 2 else ("ECG",)
        out.append(
            WaveSegment("alice", channels, MONDAY + i * 15 * MINUTE, 1000,
                        np.arange(900.0 * len(channels)).reshape(900, len(channels)),
                        location=UCLA if i % 3 else None, context=dict(contexts[i % 2]))
        )
    return out


def _window(lo: int, hi: int) -> list:
    window = Interval(MONDAY + lo * MINUTE, MONDAY + hi * MINUTE)
    cuts = (segment.slice_time(window) for segment in fixed_segments())
    return [cut for cut in cuts if cut is not None]


def _released(engine, lo, hi) -> list:
    return [piece.to_json() for piece in engine.evaluate("bob", _window(lo, hi))]


def test_counters_over_a_fixed_query_set_are_unchanged_by_the_memo():
    obs = Observability()
    engine = RuleEngine(fixed_rules(), obs=obs)
    for lo, hi in WINDOWS:
        engine.evaluate("bob", _window(lo, hi))
    counters = {name: series[0]["Value"] for name, series in obs.snapshot()["Counters"].items()}
    assert counters == COUNTERS
    assert engine.compiled._decision_memo


def test_a_memoized_decision_releases_what_a_fresh_artifact_does():
    engine = RuleEngine(fixed_rules())
    for lo, hi in WINDOWS:
        memoized = _released(engine, lo, hi)
        assert memoized == _released(RuleEngine(fixed_rules()), lo, hi)
        assert json.dumps(memoized)  # released pieces hold no memo object


def test_the_memo_is_the_artifact_s_own():
    first, second = compile_rules(fixed_rules()), compile_rules(fixed_rules())
    RuleEngine(compiled=first).evaluate("bob", _window(0, 90))
    assert first._decision_memo and not second._decision_memo
    keys = list(first._decision_memo)
    # A key is the channel mask then the piece's rule indices, in order.
    assert all(type(k) is tuple and all(type(i) is int for i in k) for k in keys)
    assert {k[0] for k in keys} == {
        first._segment_mask(("ECG",)), first._segment_mask(("ECG", "Respiration"))
    }
    assert all(0 <= i < len(first.compiled) for k in keys for i in k[1:])


def test_a_mutated_copy_starts_with_an_empty_memo():
    artifact = compile_rules(fixed_rules())
    RuleEngine(compiled=artifact).evaluate("bob", _window(0, 90))
    before = dict(artifact._decision_memo)
    clone = artifact.mutated_copy(compiled=artifact.compiled)
    assert before and clone._decision_memo == {}
    assert clone._decision_memo is not artifact._decision_memo
    RuleEngine(compiled=clone).evaluate("bob", _window(0, 90))
    assert artifact._decision_memo == before


def test_the_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(compiler, "CANDIDATE_MEMO_MAX", 3)
    artifact = compile_rules(fixed_rules())
    engine = RuleEngine(compiled=artifact)
    released = [_released(engine, lo, hi) for lo, hi in WINDOWS]
    assert len(artifact._decision_memo) == 3
    assert released == [_released(RuleEngine(fixed_rules()), lo, hi) for lo, hi in WINDOWS]


def test_each_piece_gets_its_own_withheld_reasons():
    engine = RuleEngine(fixed_rules())
    first = [p for p in engine.evaluate("bob", _window(20, 40)) if p.withheld]
    assert len(first) > 1
    assert len({id(p.withheld) for p in first}) == len(first)
    first[0].withheld.clear()
    first[0].withheld["ECG"] = "tampered"
    again = [p for p in engine.evaluate("bob", _window(20, 40)) if p.withheld]
    assert all("tampered" not in p.withheld.values() for p in again)
    assert [p.to_json() for p in again] == [
        p.to_json() for p in RuleEngine(fixed_rules()).evaluate("bob", _window(20, 40))
        if p.withheld
    ]


@pytest.mark.parametrize("enforce_closure", [True, False])
def test_a_full_deny_counts_on_every_piece_it_suppresses(enforce_closure):
    obs = Observability()
    engine = RuleEngine(fixed_rules(), obs=obs, enforce_closure=enforce_closure)
    counts = []
    for _ in range(3):
        engine.evaluate("bob", _window(0, 90))
        counts.append(obs.metrics.counter_value("compiled_full_deny_short_circuits_total"))
    assert counts[0] > 0 and counts == [counts[0], 2 * counts[0], 3 * counts[0]]
