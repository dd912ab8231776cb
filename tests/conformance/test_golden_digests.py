"""Wire-stability digests: the engine's exact payload, pinned per trial.

The oracle pins *decisions* (channels, labels, location, levels,
per-sample coverage).  ``golden_release_digests.json`` additionally pins
the exact *wire payload* — piece order, re-anchored timestamps, the
``Withheld`` reason strings that feed ``AuditRecord`` — as one truncated
SHA-256 per seeded trial.  The digests were produced by the interpreted
engine at commit ``7502e6e``, the last commit that had one, so the single
engine reproducing them is the byte-equivalence proof the old
compiled-vs-interpreted sweep used to give.  They were re-pinned once, in
PR 17, when released waveforms stopped carrying the stored
``Segment.Context``: for 2,140/2,140 trials the old digest equals the
digest of the new payload with that key re-inserted from the source
segment (568 digests moved; proof in EXPERIMENTS.md), so the chain back
to the interpreter holds for everything but the removed key.

All 2,140 digests are recomputed in tier-1 (about two seconds; ``--slow``
adds nothing here).  On a mismatch the trial is regenerated
from its seed and its oracle diff printed, which says whether the engine
is now *wrong* (fix it) or merely serializes differently (a deliberate
wire change: regenerate after a clean oracle sweep with
``PYTHONPATH=src python tests/conformance/test_golden_digests.py``).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.conformance.generators import TrialGenerator
from repro.conformance.runner import build_engine, run_trial
from repro.util.jsonutil import canonical_dumps

GOLDEN = Path(__file__).parent / "golden_release_digests.json"

#: seed -> trials stored.  Seed 7's 260 covers today's 120-trial tier-1
#: sweep; seed 23 is the second tier-1 seed; the rest are the nightly corpus.
CORPUS = {1: 260, 2: 260, 3: 260, 4: 260, 5: 260, 7: 260, 11: 260, 23: 60, 42: 260}

ABOUT = (
    "One truncated SHA-256 per conformance trial over canonical_dumps of every "
    "segment's released pieces, produced by the interpreted RuleEngine at commit "
    "7502e6e (the last commit that had one). The oracle pins correctness; these "
    "digests pin wire stability across the interpreter's deletion. Re-pinned once "
    "(PR 17) when released waveforms stopped carrying the stored Segment.Context: "
    "all 2,140 old digests equal the digest of the new payload with that key "
    "re-inserted from the source segment, so nothing else moved. If the trial "
    "*generator* later changes they are regenerated after a clean oracle sweep: "
    "PYTHONPATH=src python tests/conformance/test_golden_digests.py"
)


def trial_digest(trial) -> str:
    engine = build_engine(trial)
    payload = [
        [piece.to_json() for piece in engine.evaluate_segment(trial.consumer, segment)]
        for segment in trial.segments
    ]
    return hashlib.sha256(canonical_dumps(payload).encode("utf-8")).hexdigest()[:16]


def _stored() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)["Digests"]


def _check(seed: int, trials: int) -> None:
    stored = _stored()[str(seed)]
    assert len(stored) >= trials
    generator = TrialGenerator(seed)
    for index in range(trials):
        trial = generator.trial(index)
        if trial_digest(trial) == stored[index]:
            continue
        result = run_trial(trial)
        pytest.fail(
            f"trial {seed}/{index}: released payload no longer matches its golden "
            f"digest {stored[index]}; oracle diff for the regenerated trial:\n"
            + json.dumps(result.to_json(), indent=2, sort_keys=True)
        )


def test_golden_file_covers_the_declared_corpus():
    stored = _stored()
    assert {int(seed): len(digests) for seed, digests in stored.items()} == CORPUS


@pytest.mark.parametrize("seed", sorted(CORPUS))
def test_engine_reproduces_golden_digests(seed):
    _check(seed, CORPUS[seed])


if __name__ == "__main__":
    digests = {
        str(seed): [trial_digest(trial) for trial in TrialGenerator(seed).trials(n)]
        for seed, n in sorted(CORPUS.items())
    }
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"About": ABOUT, "Digests": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {sum(map(len, digests.values()))} digests to {GOLDEN}")
