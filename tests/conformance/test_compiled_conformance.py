"""Compiler mutation smokes: the oracle sweep must notice a broken compiler.

Each ``compiled-*`` entry in ``MUTATIONS`` re-introduces a plausible
compilation bug (dropped deny short-circuit, off-by-one window
boundaries, zeroed dependency bitmasks, a stale artifact surviving a rule
edit, a batch time-prune that looks at the first segment only).  There
is no second engine to compare bytes against: the oracle
diff and the output invariants alone must catch and shrink every one.
"""

from __future__ import annotations

import pytest

from repro.conformance.generators import TrialGenerator, trial_from_json
from repro.conformance.runner import MUTATIONS, run_conformance, run_trial

TRIALS = 120
SEED = 7
COMPILED_MUTATIONS = sorted(m for m in MUTATIONS if m.startswith("compiled-"))
#: A window ending one unit late only shows when a released piece has an
#: interior edge next to it (or a sample lands exactly on the boundary) —
#: rarer than the other mutants, so its smoke gets a bigger trial budget.
MUTATION_TRIALS = {"compiled-interval-off-by-one": 300}
#: A batch-level bug needs a batch: its repro cannot shrink below two
#: segments.
MUTATION_SEGMENTS = {"compiled-batch-prune-narrow": 2}


@pytest.mark.parametrize("mutation", COMPILED_MUTATIONS)
def test_compiled_mutation_is_caught_and_shrunk(mutation):
    trials = MUTATION_TRIALS.get(mutation, TRIALS)
    summary = run_conformance(
        trials, SEED, mutation=mutation, end_to_end_every=0, max_shrink_checks=300
    )
    assert not summary.ok, f"harness missed the {mutation} compiler mutation"
    assert summary.repro is not None
    repro = summary.repro
    # The shrunken repro is small...
    assert len(repro["Trial"]["Rules"]) <= 3
    assert len(repro["Trial"]["Segments"]) == MUTATION_SEGMENTS.get(mutation, 1)
    # ...still failing when replayed from its JSON against the mutant...
    replayed = run_trial(trial_from_json(repro["Trial"]), MUTATIONS[mutation])
    assert not replayed.ok
    assert [d.to_json() for d in replayed.divergences] == repro["Divergences"]
    assert [v.to_json() for v in replayed.violations] == repro["Violations"]
    # ...and clean against the real engine (the bug is the mutation, not
    # the trial).
    assert run_trial(trial_from_json(repro["Trial"])).ok


@pytest.mark.parametrize("mutation", COMPILED_MUTATIONS)
def test_compiled_mutation_detection_is_deterministic(mutation):
    trials = MUTATION_TRIALS.get(mutation, TRIALS)
    first = run_conformance(trials, SEED, mutation=mutation, end_to_end_every=0)
    second = run_conformance(trials, SEED, mutation=mutation, end_to_end_every=0)
    assert first.failed_index == second.failed_index
    assert first.to_json() == second.to_json()


def test_compiled_engine_handles_every_generated_trial():
    """Direct batch-evaluation pass (no oracle): no crashes, pure output."""
    from repro.rules.compiler import compile_rules

    generator = TrialGenerator(SEED)
    for index in range(40):
        trial = generator.trial(index)
        artifact = compile_rules(trial.rules, trial.places)
        batch = artifact.evaluate_batch(trial.principals(), trial.segments)
        for piece in batch:
            piece.to_json()  # must serialize cleanly
