"""The differential sweep itself, as a tier-1 test.

~200 seeded trials run on every CI push; the 2,000-trial sweep is marked
``slow`` and runs nightly (``pytest --slow``).  Failures print a shrunken
JSON repro — paste it into ``trial_from_json`` to replay.
"""

from __future__ import annotations

import json

import pytest

from repro.conformance.generators import (
    GeoEdgeTrialGenerator,
    TrialGenerator,
    trial_from_json,
    trial_to_json,
)
from repro.conformance.runner import (
    end_to_end_violations,
    run_conformance,
    run_trial,
)

SEED = 7


def _report(summary) -> str:
    return json.dumps(summary.to_json(), indent=2, sort_keys=True)


def test_tier1_sweep_200_trials():
    summary = run_conformance(200, SEED, end_to_end_every=50)
    assert summary.ok, _report(summary)
    assert summary.end_to_end_runs == 4


def test_sweep_is_clean_on_second_seed():
    summary = run_conformance(60, 23, end_to_end_every=0)
    assert summary.ok, _report(summary)


def test_geo_edge_sweep_200_trials():
    # Places and capture points across the antimeridian and at high
    # latitudes, where a region's bounding box is not the region.
    generator = GeoEdgeTrialGenerator(SEED)
    for index in range(200):
        trial = generator.trial(index)
        result = run_trial(trial)
        if index % 50 == 0:
            result.violations.extend(end_to_end_violations(trial))
        assert result.ok, json.dumps(result.to_json(), indent=2, sort_keys=True)


def test_geo_edge_corpus_puts_points_where_a_box_misses():
    """The family stays sharp: rules' regions hold capture points their
    bounding boxes miss, on both edges the family is built for."""
    misses = {"antimeridian": 0, "high-latitude": 0}
    for trial in GeoEdgeTrialGenerator(SEED).trials(200):
        regions = [
            region
            for rule in trial.rules
            for region in rule.location_regions
            + tuple(trial.places[l].region for l in rule.location_labels if l in trial.places)
        ]
        for segment in trial.segments:
            point = segment.location
            for region in regions:
                if point is None or not region.contains(point):
                    continue
                if not region.bounding_box().contains(point):
                    edge = "high-latitude" if abs(point.lon) < 90 else "antimeridian"
                    misses[edge] += 1
    # The high-latitude sliver past a box's edge is thin: a few hits in
    # 200 trials; the store's region test draws it directly.
    assert misses["antimeridian"] >= 10 and misses["high-latitude"] >= 1, misses


def test_sweep_is_deterministic():
    first = run_conformance(30, SEED, end_to_end_every=0)
    second = run_conformance(30, SEED, end_to_end_every=0)
    assert first.to_json() == second.to_json()


def test_trials_replay_from_their_seed():
    generator = TrialGenerator(SEED)
    for index in (0, 17, 93):
        trial = generator.trial(index)
        again = TrialGenerator(SEED).trial(index)
        assert trial_to_json(trial) == trial_to_json(again)
        # And through JSON: a printed repro reconstructs the same scenario.
        rebuilt = trial_from_json(trial_to_json(trial))
        assert trial_to_json(rebuilt) == trial_to_json(trial)
        assert run_trial(rebuilt).ok == run_trial(trial).ok


def test_end_to_end_query_path_is_contained():
    generator = TrialGenerator(SEED)
    for index in range(6):
        violations = end_to_end_violations(generator.trial(index))
        assert not violations, [v.to_json() for v in violations]


@pytest.mark.slow
def test_nightly_sweep_2000_trials():
    summary = run_conformance(2000, SEED, end_to_end_every=100)
    assert summary.ok, _report(summary)


@pytest.mark.slow
def test_nightly_sweep_alternate_seeds():
    for seed in (1, 2, 3):
        summary = run_conformance(500, seed, end_to_end_every=250)
        assert summary.ok, _report(summary)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 7, 11, 42])
def test_nightly_sweep_at_scale(seed):
    """≥2,000 trials across seeds (8 × 260) — the corpus whose wire
    payloads ``golden_release_digests.json`` pins."""
    summary = run_conformance(260, seed, end_to_end_every=65)
    assert summary.ok, _report(summary)
