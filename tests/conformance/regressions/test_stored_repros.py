"""Replay stored shrunken repros.

Every JSON file next to this test is a shrunken conformance failure kept
as a regression: it must stay *clean* against the real engine and must
still be *caught* when its recorded mutation is applied.  Most come from
the mutation smoke runs.  A repro with ``"Mutation"`` absent is a real
engine bug, shrunk by the harness and kept clean since its fix:
``antimeridian-deny`` is a Deny whose circle straddles the antimeridian,
which the engine once skipped because the circle's bounding box was
clamped at 180° and a lat/lon grid of those boxes pruned the rule.
The ``sim-*`` files are fleet schedules, replayed by
``tests/conformance/test_sim.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.conformance.generators import trial_from_json
from repro.conformance.runner import MUTATIONS, run_trial

HERE = Path(__file__).parent
REPRO_FILES = sorted(p for p in HERE.glob("*.json") if not p.name.startswith("sim-"))


def _load(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_regression_corpus_is_nonempty():
    assert REPRO_FILES, "regressions directory lost its stored repros"


@pytest.mark.parametrize("path", REPRO_FILES, ids=lambda p: p.stem)
def test_stored_repro_replays(path):
    stored = _load(path)
    trial = trial_from_json(stored["Repro"]["Trial"])
    mutation = stored.get("Mutation")
    if mutation is None:
        # A real (since fixed) engine bug: must now be clean.
        assert run_trial(trial).ok
        return
    # Mutation-sourced repro: caught under the mutation with the exact
    # recorded findings, clean on the real engine.
    replayed = run_trial(trial, MUTATIONS[mutation])
    assert not replayed.ok
    assert [d.to_json() for d in replayed.divergences] == stored["Repro"]["Divergences"]
    assert [v.to_json() for v in replayed.violations] == stored["Repro"]["Violations"]
    assert run_trial(trial).ok
