"""The harness must catch a broken engine — mutation smoke tests.

A conformance harness that passes on a correct engine proves little until
it also *fails* on an incorrect one.  Each entry in ``MUTATIONS`` removes
one enforcement layer; the sweep must deterministically find a divergence
against every one of them, and the shrinker must reduce the failing trial
to something small enough to read.
"""

from __future__ import annotations

import pytest

from repro.conformance.generators import trial_from_json, trial_to_json
from repro.conformance.runner import (
    MUTATIONS,
    build_engine,
    run_conformance,
    run_trial,
    shrink_trial,
)

TRIALS = 120
SEED = 7
#: The six mutants that remove an enforcement layer.  The five broken
#: *compilers* shrink less far and one needs a bigger trial budget, so
#: their smokes live in test_compiled_conformance.py.
LAYER_MUTATIONS = sorted(m for m in MUTATIONS if not m.startswith("compiled-"))


@pytest.mark.parametrize("mutation", LAYER_MUTATIONS)
def test_mutation_is_caught_and_shrunk(mutation):
    summary = run_conformance(
        TRIALS, SEED, mutation=mutation, end_to_end_every=0, max_shrink_checks=300
    )
    assert not summary.ok, f"harness missed the {mutation} mutation"
    assert summary.repro is not None
    repro = summary.repro
    # The shrunken repro is small...
    assert len(repro["Trial"]["Rules"]) <= 3
    assert len(repro["Trial"]["Segments"]) == 1
    assert repro["Trial"]["Segments"][0]["Values"]["Samples"] <= 4
    # ...still failing when replayed from its JSON against the mutant...
    replayed = run_trial(trial_from_json(repro["Trial"]), MUTATIONS[mutation])
    assert not replayed.ok
    assert [d.to_json() for d in replayed.divergences] == repro["Divergences"]
    assert [v.to_json() for v in replayed.violations] == repro["Violations"]
    # ...and clean against the real engine (the bug is the mutation).
    assert run_trial(trial_from_json(repro["Trial"])).ok


@pytest.mark.parametrize("mutation", LAYER_MUTATIONS)
def test_mutation_detection_is_deterministic(mutation):
    first = run_conformance(TRIALS, SEED, mutation=mutation, end_to_end_every=0)
    second = run_conformance(TRIALS, SEED, mutation=mutation, end_to_end_every=0)
    assert first.failed_index == second.failed_index
    assert first.to_json() == second.to_json()


def test_shrink_preserves_failure_and_reaches_fixpoint():
    summary = run_conformance(
        TRIALS, SEED, mutation="ignore-deny", end_to_end_every=0, shrink=False
    )
    trial = None
    from repro.conformance.generators import TrialGenerator

    trial = TrialGenerator(SEED).trial(summary.failed_index)

    def fails(candidate):
        return not run_trial(candidate, MUTATIONS["ignore-deny"]).ok

    assert fails(trial)
    shrunk = shrink_trial(trial, fails)
    assert fails(shrunk)
    assert len(shrunk.rules) <= len(trial.rules)
    total = sum(s.n_samples for s in shrunk.segments)
    assert total <= sum(s.n_samples for s in trial.segments)
    # Shrinking is deterministic too.
    again = shrink_trial(trial, fails)
    assert trial_to_json(again) == trial_to_json(shrunk)


def test_batch_check_is_what_catches_the_narrow_prune():
    """``compiled-batch-prune-narrow`` is correct one segment at a time, so
    the oracle diff alone passes it; the batch-vs-per-segment comparison
    that ``run_trial`` makes on every trial is the only thing that can
    fail it."""
    mutation = "compiled-batch-prune-narrow"
    summary = run_conformance(TRIALS, SEED, mutation=mutation, end_to_end_every=0)
    assert not summary.ok, f"harness missed the {mutation} mutation"
    assert {d["Kind"] for d in summary.repro["Divergences"]} == {"batch-mismatch"}
    assert summary.repro["Violations"] == []
    trial = trial_from_json(summary.repro["Trial"])
    real, mutant = build_engine(trial), MUTATIONS[mutation](trial)
    for segment in trial.segments:
        assert [p.to_json() for p in mutant.evaluate_segment(trial.consumer, segment)] == [
            p.to_json() for p in real.evaluate_segment(trial.consumer, segment)
        ]
    assert [p.to_json() for p in mutant.evaluate(trial.consumer, trial.segments)] != [
        p.to_json() for p in real.evaluate(trial.consumer, trial.segments)
    ]


def test_unknown_mutation_rejected():
    with pytest.raises(ValueError):
        run_conformance(1, SEED, mutation="ignore-everything")


def test_cli_reports_ok_on_clean_run(capsys):
    from repro.conformance.runner import main

    assert main(["--trials", "20", "--seed", "7", "--end-to-end-every", "0"]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "20 trials" in out


def test_cli_expect_divergence_flips_exit_code(capsys, tmp_path):
    from repro.conformance.runner import main

    out_file = tmp_path / "repro.json"
    code = main(
        [
            "--trials", "60", "--seed", "7",
            "--mutate", "ignore-deny",
            "--expect-divergence",
            "--end-to-end-every", "0",
            "--out", str(out_file),
        ]
    )
    assert code == 0  # divergence found, as expected
    assert out_file.exists()
    captured = capsys.readouterr().out
    assert "FAIL" in captured
    # A clean run under --expect-divergence is the failure mode.
    assert (
        main(
            ["--trials", "5", "--seed", "7", "--expect-divergence",
             "--end-to-end-every", "0"]
        )
        == 1
    )


def test_module_dispatch_routes_to_conformance():
    from repro.__main__ import dispatch

    assert dispatch(["conformance", "--trials", "5", "--seed", "7",
                     "--end-to-end-every", "0"]) == 0
    assert dispatch(["no-such-subcommand"]) == 2


def test_mutants_actually_differ_from_real_engine():
    """Guard against a mutation factory accidentally building the real
    engine (which would make its smoke test vacuous)."""
    from repro.conformance.generators import TrialGenerator

    generator = TrialGenerator(SEED)
    for mutation in LAYER_MUTATIONS:
        factory = MUTATIONS[mutation]
        differs = False
        for index in range(TRIALS):
            trial = generator.trial(index)
            real = build_engine(trial)
            mutant = factory(trial)
            for segment in trial.segments:
                a = [p.to_json() for p in real.evaluate_segment(trial.consumer, segment)]
                b = [p.to_json() for p in mutant.evaluate_segment(trial.consumer, segment)]
                if a != b:
                    differs = True
                    break
            if differs:
                break
        assert differs, f"mutation {mutation} never changed any release"


def test_end_to_end_runs_the_cached_path_and_counts_its_bytes(monkeypatch):
    """The clean end-to-end check asks twice; the repeat is a cache hit."""
    from repro.conformance.generators import TrialGenerator
    from repro.conformance.runner import end_to_end_violations
    from repro.datastore.cache import ReleaseCache

    hits = []
    real_get = ReleaseCache.get

    def spying_get(cache, key):
        entry = real_get(cache, key)
        hits.append(entry is not None)
        return entry

    monkeypatch.setattr(ReleaseCache, "get", spying_get)
    assert end_to_end_violations(TrialGenerator(SEED).trial(0)) == []
    assert hits == [False, True]


def test_off_by_one_envelope_constant_is_a_wire_accounting_violation(monkeypatch):
    """A wrong declared size must not slip past the sweep: it would
    silently falsify every traffic figure built on ``net_bytes_out_total``."""
    from repro.conformance.generators import TrialGenerator
    from repro.conformance.runner import end_to_end_violations
    from repro.server import datastore_service

    monkeypatch.setattr(
        datastore_service,
        "_RELEASE_ENVELOPE_BYTES",
        datastore_service._RELEASE_ENVELOPE_BYTES + 1,
    )
    violations = end_to_end_violations(TrialGenerator(SEED).trial(0))
    assert [v.invariant for v in violations] == ["wire-accounting"] * 2
    assert "miss" in violations[0].detail and "cached" in violations[1].detail

    summary = run_conformance(1, SEED, end_to_end_every=1, shrink=False)
    assert not summary.ok and summary.violations == 2
