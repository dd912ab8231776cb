"""Differential conformance runner and the ``repro conformance`` CLI.

For each seeded trial the optimized :class:`~repro.rules.engine.RuleEngine`
evaluates the generated segments and the result is checked three ways:

1. **differential** — every sample instant is compared against the
   brute-force oracle: which channels flow, which labels, which levels;
   the trial's segments are also evaluated as one batch, which must
   release exactly the per-segment pieces the oracle just checked;
2. **invariants** — the release is checked against the output properties
   in :mod:`repro.conformance.invariants`;
3. **end-to-end** (every N-th trial) — the same scenario is loaded into a
   real :class:`~repro.server.datastore_service.DataStoreService` and
   queried over the simulated network; the HTTP payload must be exactly
   what the engine released (the release-guard hook observes the engine
   output inside the service) and must re-derive from an independently
   constructed engine; the query is asked twice so the release-cache hit
   is held to the same checks, and the transport's response byte count
   must equal the encoded body both times.

A failing trial is shrunk — greedily removing rules, segments, samples,
channels, context annotations, and rule conditions while the failure
persists — and printed as a minimal JSON repro that replays with
:func:`repro.conformance.generators.trial_from_json`.

Mutation smoke tests: ``MUTATIONS`` maps names to deliberately broken
engine factories — six that remove an enforcement layer ("ignore-deny",
"no-closure", ...) and five broken *compilers* (dropped deny
short-circuit, off-by-one interval boundaries, stale dependency
bitmasks, a stale artifact surviving a rule edit, a batch time-prune
that only looks at the first segment).  The harness must
find and shrink a divergence against each of them; if it cannot, the
harness itself is broken.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional

from repro.conformance.generators import (
    Trial,
    TrialGenerator,
    rule_variant,
    segment_truncated,
    segment_without_channel,
    segment_without_context,
    segment_without_location,
    trial_to_json,
)
from repro.conformance.invariants import Violation, check_release
from repro.conformance.oracle import decide_instant
from repro.datastore.query import DataQuery
from repro.datastore.wavesegment import TIME_CHANNEL, WaveSegment
from repro.rules.compiler import compile_rules
from repro.rules.engine import ReleasedSegment, RuleEngine, decode_release
from repro.util.timeutil import TimeCondition


@dataclass(frozen=True)
class Divergence:
    """One engine-vs-oracle disagreement at a specific instant or piece."""

    kind: str
    segment_id: str
    detail: str
    t: Optional[int] = None
    piece_index: Optional[int] = None

    def to_json(self) -> dict:
        obj = {"Kind": self.kind, "SegmentId": self.segment_id, "Detail": self.detail}
        if self.t is not None:
            obj["T"] = self.t
        if self.piece_index is not None:
            obj["PieceIndex"] = self.piece_index
        return obj


@dataclass
class TrialResult:
    trial: Trial
    divergences: list = field(default_factory=list)
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences and not self.violations

    def to_json(self) -> dict:
        return {
            "Trial": trial_to_json(self.trial),
            "Divergences": [d.to_json() for d in self.divergences],
            "Violations": [v.to_json() for v in self.violations],
        }


# ----------------------------------------------------------------------
# Engine construction and mutations
# ----------------------------------------------------------------------


def build_engine(trial: Trial, **engine_kwargs) -> RuleEngine:
    """The engine under test, wired exactly like the datastore service."""

    def membership(name: str) -> frozenset:
        return frozenset({name}) | trial.memberships.get(name, frozenset())

    return RuleEngine(
        trial.rules, trial.places, membership=membership, **engine_kwargs
    )


def _engine_dropping(kind: str) -> Callable[[Trial], RuleEngine]:
    def factory(trial: Trial) -> RuleEngine:
        pruned = replace(
            trial, rules=[r for r in trial.rules if r.action.kind != kind]
        )
        return build_engine(pruned)

    return factory


def _engine_ignoring_time(trial: Trial) -> RuleEngine:
    stripped = replace(
        trial, rules=[rule_variant(r, time=TimeCondition()) for r in trial.rules]
    )
    return build_engine(stripped)


def _engine_ignoring_context(trial: Trial) -> RuleEngine:
    stripped = replace(trial, rules=[rule_variant(r, contexts=()) for r in trial.rules])
    return build_engine(stripped)


def _compiled_ignore_full_deny(trial: Trial) -> RuleEngine:
    """Mutant compiler: the unscoped-Deny short-circuit is dropped.

    An unscoped Deny rule is rewritten with an empty sensor scope, so it
    never matches a segment and the deny-first short-circuit never fires
    — everything the Allow rules grant leaks through pieces the real
    engine suppresses outright.
    """
    artifact = compile_rules(trial.rules, trial.places)
    broken = [
        replace(cr, scope_mask=0)
        if cr.rule.action.is_deny and cr.scope_mask is None
        else cr
        for cr in artifact.compiled
    ]
    return build_engine(trial, compiled=artifact.mutated_copy(compiled=broken))


def _compiled_interval_off_by_one(trial: Trial) -> RuleEngine:
    """Mutant compiler: every compiled time window ends one unit late.

    Static windows gain a millisecond, weekly windows a minute (clamped
    at midnight) — the classic half-open-boundary slip a hand-rolled
    interval structure invites.
    """
    artifact = compile_rules(trial.rules, trial.places)
    broken = []
    for cr in artifact.compiled:
        static = tuple((s, e + 1) for s, e in cr.static_windows)
        day = cr.day_windows
        if day is not None:
            day = tuple(
                tuple((lo, min(hi + 60_000, 86_400_000)) for lo, hi in windows)
                for windows in day
            )
        broken.append(replace(cr, static_windows=static, day_windows=day))
    return build_engine(trial, compiled=artifact.mutated_copy(compiled=broken))


def _compiled_stale_bitmask(trial: Trial) -> RuleEngine:
    """Mutant compiler: dependency-closure bitmasks zeroed out.

    Models a compiler that forgot to rebuild channel→context masks: the
    closure never withholds a revealing channel and label eligibility
    collapses, so raw channels leak restricted contexts.
    """
    artifact = compile_rules(trial.rules, trial.places)
    return build_engine(trial, compiled=artifact.mutated_copy(zero_dependency_masks=True))


def _compiled_stale_rules(trial: Trial) -> RuleEngine:
    """Mutant wiring: an artifact compiled before the last rule edit.

    The engine is asked about the trial's full rules but evaluates
    through an artifact compiled from all-but-the-last rule — exactly the
    bug the epoch-keyed :class:`~repro.rules.compiler.CompiledRuleCache`
    exists to make unreachable.
    """
    artifact = compile_rules(trial.rules[:-1], trial.places)
    return build_engine(trial, compiled=artifact)


def _compiled_batch_prune_narrow(trial: Trial) -> RuleEngine:
    """Mutant evaluator: the batch window is the first segment's span.

    Timed rules are resolved against that span alone, so a rule whose
    windows only touch later segments is pruned for the whole batch — a
    Deny stops denying, an Allow stops granting.  One segment at a time
    the mutant is correct; only the batch-vs-per-segment check in
    :func:`run_trial` can see it.
    """
    artifact = compile_rules(trial.rules, trial.places)
    return build_engine(
        trial, compiled=artifact.mutated_copy(batch_span=lambda spans: spans[0])
    )


def _engine_releasing_stored_context(trial: Trial) -> RuleEngine:
    """Mutant shaping: a released waveform keeps its segment's stored context.

    Decisions, labels and samples are all right, so only the
    ``stored-context`` invariant of ``check_release`` can see it.
    """
    engine = build_engine(trial)
    shaped = engine.evaluate_segment

    def evaluate_segment(consumer: str, segment: WaveSegment) -> list:
        return [
            replace(p, segment=p.segment and p.segment.with_context(segment.context))
            for p in shaped(consumer, segment)
        ]

    engine.evaluate_segment = evaluate_segment
    engine.evaluate = lambda consumer, segments: [
        p for segment in segments for p in evaluate_segment(consumer, segment)
    ]
    return engine


#: Deliberately broken engines.  The first six remove one enforcement
#: layer, the way a careless refactor of the rule path might; the
#: ``compiled-*`` five re-introduce a plausible compilation bug.  The
#: oracle diff or the release invariants must catch every one of them
#: (tests/conformance/test_runner.py asserts it).
MUTATIONS: dict = {
    "ignore-deny": _engine_dropping("deny"),
    "ignore-abstraction": _engine_dropping("abstraction"),
    "no-closure": lambda trial: build_engine(trial, enforce_closure=False),
    "ignore-time": _engine_ignoring_time,
    "ignore-context": _engine_ignoring_context,
    "release-stored-context": _engine_releasing_stored_context,
    "compiled-ignore-full-deny": _compiled_ignore_full_deny,
    "compiled-interval-off-by-one": _compiled_interval_off_by_one,
    "compiled-stale-bitmask": _compiled_stale_bitmask,
    "compiled-stale-rules": _compiled_stale_rules,
    "compiled-batch-prune-narrow": _compiled_batch_prune_narrow,
}


# ----------------------------------------------------------------------
# The differ
# ----------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, frozenset) or isinstance(value, set):
        return str(sorted(value))
    return repr(value)


def diff_segment(trial: Trial, segment: WaveSegment, pieces: Iterable[ReleasedSegment]) -> list:
    """Engine-vs-oracle divergences for one segment, sample by sample."""
    pieces = list(pieces)
    principals = trial.principals()
    rules, places = trial.rules, trial.places
    out: list[Divergence] = []
    times = [int(t) for t in segment.sample_times()]
    covering: dict = {t: [] for t in times}

    for index, piece in enumerate(pieces):
        piece_channels = frozenset(piece.channels()) - {TIME_CHANNEL}
        covered = [t for t in times if piece.interval.contains(t)]
        for t in covered:
            covering[t].append((index, piece_channels))

        # The piece's metadata must match the oracle at its own start
        # instant — this also polices label-only pieces that cover no
        # sample (a time window between two sample instants).
        probe = decide_instant(rules, segment, principals, places, piece.interval.start)
        if not probe.releases:
            out.append(
                Divergence(
                    "released-but-oracle-denies",
                    segment.segment_id,
                    f"piece {piece.interval} released; oracle denies everything "
                    f"at t={piece.interval.start}",
                    t=piece.interval.start,
                    piece_index=index,
                )
            )
            continue
        for name, got, want in (
            ("context labels", piece.context_labels, probe.context_labels),
            ("location", piece.location, probe.location),
            ("location level", piece.location_level, probe.location_level),
            ("time level", piece.time_level, probe.time_level),
        ):
            if got != want:
                out.append(
                    Divergence(
                        "piece-mismatch",
                        segment.segment_id,
                        f"{name}: engine {_fmt(got)} vs oracle {_fmt(want)} "
                        f"at t={piece.interval.start}",
                        t=piece.interval.start,
                        piece_index=index,
                    )
                )
        if covered and piece_channels != probe.channels:
            out.append(
                Divergence(
                    "channel-mismatch",
                    segment.segment_id,
                    f"engine released {_fmt(piece_channels)} vs oracle "
                    f"{_fmt(probe.channels)} at t={piece.interval.start}",
                    t=piece.interval.start,
                    piece_index=index,
                )
            )

    # Per-sample comparison across all pieces.
    for t in times:
        hits = covering[t]
        if len(hits) > 1:
            out.append(
                Divergence(
                    "overlapping-release",
                    segment.segment_id,
                    f"sample at t={t} covered by pieces {[i for i, _ in hits]}",
                    t=t,
                )
            )
            continue
        expected = decide_instant(rules, segment, principals, places, t)
        actual_channels = hits[0][1] if hits else frozenset()
        if expected.releases and not hits:
            out.append(
                Divergence(
                    "missing-release",
                    segment.segment_id,
                    f"oracle releases {_fmt(expected.channels)} / labels "
                    f"{expected.context_labels} at t={t}; engine released nothing",
                    t=t,
                )
            )
        elif not expected.releases and hits:
            out.append(
                Divergence(
                    "released-but-oracle-denies",
                    segment.segment_id,
                    f"engine covers t={t} with channels {_fmt(actual_channels)}; "
                    "oracle denies everything",
                    t=t,
                )
            )
        elif hits and expected.channels != actual_channels:
            out.append(
                Divergence(
                    "channel-mismatch",
                    segment.segment_id,
                    f"engine released {_fmt(actual_channels)} vs oracle "
                    f"{_fmt(expected.channels)} at t={t}",
                    t=t,
                )
            )
    return out


# ----------------------------------------------------------------------
# Trial execution
# ----------------------------------------------------------------------


def run_trial(
    trial: Trial,
    engine_factory: Optional[Callable[[Trial], RuleEngine]] = None,
) -> TrialResult:
    """Diff + invariant-check one trial against the (possibly broken) engine."""
    engine = (engine_factory or build_engine)(trial)
    result = TrialResult(trial)
    per_segment: list = []
    for segment in trial.segments:
        pieces = engine.evaluate_segment(trial.consumer, segment)
        result.divergences.extend(diff_segment(trial, segment, pieces))
        result.violations.extend(check_release(trial, segment, pieces))
        per_segment.extend(piece.to_json() for piece in pieces)
    # The query path evaluates a window of segments as one batch; it must
    # release exactly the pieces the oracle just checked one by one.
    batch = [p.to_json() for p in engine.evaluate(trial.consumer, trial.segments)]
    if batch != per_segment:
        shared = min(len(batch), len(per_segment))
        first = next((i for i in range(shared) if batch[i] != per_segment[i]), shared)
        result.divergences.append(
            Divergence(
                "batch-mismatch",
                "",
                f"batch evaluation released {len(batch)} piece(s), per-segment "
                f"evaluation {len(per_segment)}; they first differ at piece {first}",
                piece_index=first,
            )
        )
    return result


def end_to_end_violations(trial: Trial) -> list:
    """Drive the real query path and check query-API containment.

    Loads the trial into a live :class:`DataStoreService` on a simulated
    network, queries it twice as the trial's consumer — the repeat is
    served from the release cache — and asserts:

    * the HTTP payload is byte-for-byte the engine's release (observed by
      the service's release-guard hook) — the API adds nothing;
    * the cached response is the miss over again: equal body, and the
      release guard fired with the same served segments and release;
    * the payload re-derives from an independently constructed engine over
      the segments the store actually served (which may be merged);
    * the oracle diff holds on those served segments too;
    * the transport counted exactly ``len(wire.encode(body))`` response
      bytes for each request (``wire-accounting``) — measured here by the
      encoder, not by the ``wire.size`` the transport itself uses; a
      cached release declares its size instead of being measured, and a
      wrong declared size would silently falsify the C2 traffic figures.
    """
    from repro.net import wire
    from repro.net.client import HttpClient
    from repro.net.transport import Network
    from repro.server.datastore_service import DataStoreService

    network = Network()
    store = DataStoreService("conformance-store", network, seed=0)
    store.register_contributor(trial.contributor)
    consumer_key = store.register_consumer(
        trial.consumer, groups=trial.memberships.get(trial.consumer, ())
    )
    store.set_places(trial.contributor, trial.places)
    store.rules.replace_all(trial.contributor, trial.rules)
    for segment in trial.segments:
        store.store.add_segment(segment)
    store.store.flush()
    events: list = []
    store.release_guards.append(events.append)

    client = HttpClient(network, name=trial.consumer, api_key=consumer_key)
    traffic = network.metrics_of(store.host)
    out: list[Violation] = []
    bodies = []
    for path in ("miss", "cached"):
        before = traffic.bytes_out
        body = client.post(
            f"https://{store.host}/api/query",
            {"Contributor": trial.contributor, "Query": DataQuery().to_json()},
        )
        counted = traffic.bytes_out - before
        measured = len(wire.encode(body))
        if counted != measured:
            out.append(
                Violation(
                    "wire-accounting",
                    f"{path} response: the transport counted {counted} bytes "
                    f"but the body encodes to {measured}",
                )
            )
        bodies.append(body)
    api_released = [p.to_json() for p in decode_release(bodies[-1].get("Released"))]

    if not events:
        out.append(
            Violation("query-containment", "release guard never fired on the query path")
        )
        return out
    event = events[-1]
    # Compared in wire form: segment equality is undefined across instances
    # (numpy payloads), and a non-replaying service would hand out new ones.
    replays = [
        ([s.to_json() for s in e.segments], [r.to_json() for r in e.released])
        for e in events
    ]
    if bodies[0] != bodies[1] or len(events) != 2 or replays[0] != replays[1]:
        out.append(
            Violation(
                "query-containment",
                "the repeated (cached) query did not replay the first response "
                "and its release-guard event",
            )
        )
    engine_payload = [r.to_json() for r in event.released]
    if api_released != engine_payload:
        out.append(
            Violation(
                "query-containment",
                f"query API returned {len(api_released)} piece(s) but the engine "
                f"released {len(engine_payload)} — payload and release differ",
            )
        )
    return out + served_violations(trial, event.segments, api_released)


def served_violations(trial: Trial, segments, released: list) -> list:
    """``released`` (its pieces' JSON) against an engine built afresh from
    ``trial`` over the ``segments`` a store served: the payload must
    re-derive, and each segment's pieces must match the oracle and hold the
    release invariants.  The store may have merged uploads, so this diffs
    what it actually served."""
    reference = build_engine(trial)
    out = []
    if released != [r.to_json() for r in reference.evaluate(trial.consumer, segments)]:
        out.append(
            Violation(
                "query-containment",
                "query API payload does not re-derive from an independently "
                "constructed engine over the served segments",
            )
        )
    for segment in segments:
        pieces = reference.evaluate_segment(trial.consumer, segment)
        out += [
            Violation("query-containment", f"served segment diverges from oracle: {d.detail}",
                      d.segment_id)
            for d in diff_segment(trial, segment, pieces)
        ]
        out.extend(check_release(trial, segment, pieces))
    return out


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------


def _trial_edits(trial: Trial):
    """Candidate one-step simplifications, most aggressive first."""
    for i in range(len(trial.segments)):
        if len(trial.segments) > 1:
            yield replace(trial, segments=trial.segments[:i] + trial.segments[i + 1 :])
    for i in range(len(trial.rules)):
        yield replace(trial, rules=trial.rules[:i] + trial.rules[i + 1 :])
    if trial.memberships:
        yield replace(trial, memberships={})
    if trial.places:
        yield replace(trial, places={})
    for i, rule in enumerate(trial.rules):
        variants = []
        if rule.consumers:
            variants.append(rule_variant(rule, consumers=()))
        if rule.location_labels or rule.location_regions:
            variants.append(
                rule_variant(rule, location_labels=(), location_regions=())
            )
        if not rule.time.is_unconstrained():
            variants.append(rule_variant(rule, time=TimeCondition()))
        if rule.sensors:
            variants.append(rule_variant(rule, sensors=()))
        if rule.contexts:
            variants.append(rule_variant(rule, contexts=()))
        if rule.action.is_abstraction and len(rule.action.abstraction) > 1:
            for aspect, level in rule.action.abstraction.items():
                variants.append(
                    rule_variant(
                        rule,
                        action=type(rule.action)("abstraction", {aspect: level}),
                    )
                )
        for variant in variants:
            yield replace(
                trial, rules=trial.rules[:i] + [variant] + trial.rules[i + 1 :]
            )
    for i, segment in enumerate(trial.segments):
        candidates = [
            segment_truncated(segment, segment.n_samples // 2),
            segment_truncated(segment, 1),
            segment_without_location(segment),
        ]
        candidates.extend(segment_without_channel(segment, c) for c in segment.channels)
        candidates.extend(segment_without_context(segment, c) for c in segment.context)
        for candidate in candidates:
            if candidate is not None:
                yield replace(
                    trial,
                    segments=trial.segments[:i] + [candidate] + trial.segments[i + 1 :],
                )


def shrink(value, edits: Callable, failing: Callable, *, max_checks: int = 400):
    """Greedy structural shrink: keep any single edit that still fails.

    ``edits(value)`` yields candidate one-step simplifications, most
    aggressive first; ``failing(value)`` must be True on entry.  The
    returned value also fails and is at a local minimum (no single edit
    keeps it failing), up to the ``max_checks`` evaluation budget.  Fully
    deterministic.  Trials and fleet schedules
    (:mod:`repro.conformance.sim`) shrink through this one loop.
    """
    checks = 0
    current = value
    improved = True
    while improved and checks < max_checks:
        improved = False
        for candidate in edits(current):
            if checks >= max_checks:
                break
            checks += 1
            try:
                if failing(candidate):
                    current = candidate
                    improved = True
                    break
            except Exception:  # a crashing candidate is a different bug
                continue
    return current


def shrink_trial(
    trial: Trial,
    failing: Callable[[Trial], bool],
    *,
    max_checks: int = 400,
) -> Trial:
    """:func:`shrink` over a trial's rules, segments and their conditions."""
    return shrink(trial, _trial_edits, failing, max_checks=max_checks)


# ----------------------------------------------------------------------
# The harness entry points
# ----------------------------------------------------------------------


@dataclass
class ConformanceSummary:
    trials: int
    seed: int
    divergences: int = 0
    violations: int = 0
    end_to_end_runs: int = 0
    mutation: Optional[str] = None
    failed_index: Optional[int] = None
    repro: Optional[dict] = None  # shrunken TrialResult JSON

    @property
    def ok(self) -> bool:
        return self.divergences == 0 and self.violations == 0

    def to_json(self) -> dict:
        obj = {
            "Trials": self.trials,
            "Seed": self.seed,
            "Divergences": self.divergences,
            "Violations": self.violations,
            "EndToEndRuns": self.end_to_end_runs,
        }
        if self.mutation:
            obj["Mutation"] = self.mutation
        if self.failed_index is not None:
            obj["FailedIndex"] = self.failed_index
        if self.repro is not None:
            obj["Repro"] = self.repro
        return obj


def run_conformance(
    trials: int,
    seed: int,
    *,
    mutation: Optional[str] = None,
    engine_factory: Optional[Callable[[Trial], RuleEngine]] = None,
    end_to_end_every: int = 25,
    shrink: bool = True,
    max_shrink_checks: int = 400,
) -> ConformanceSummary:
    """Run ``trials`` seeded trials; stop, shrink, and report on failure."""
    if mutation is not None:
        if mutation not in MUTATIONS:
            raise ValueError(
                f"unknown mutation {mutation!r}; known: {sorted(MUTATIONS)}"
            )
        engine_factory = MUTATIONS[mutation]
    generator = TrialGenerator(seed)
    summary = ConformanceSummary(trials=trials, seed=seed, mutation=mutation)

    for index in range(trials):
        trial = generator.trial(index)
        result = run_trial(trial, engine_factory)
        # The end-to-end path only makes sense against the real engine —
        # the service builds its own, so mutations cannot reach it.
        if engine_factory is None and end_to_end_every and index % end_to_end_every == 0:
            result.violations.extend(end_to_end_violations(trial))
            summary.end_to_end_runs += 1
        if result.ok:
            continue
        summary.divergences += len(result.divergences)
        summary.violations += len(result.violations)
        summary.failed_index = index
        shrunk_trial = trial
        if shrink:
            def _fails(candidate: Trial) -> bool:
                return not run_trial(candidate, engine_factory).ok

            shrunk_trial = shrink_trial(trial, _fails, max_checks=max_shrink_checks)
        summary.repro = run_trial(shrunk_trial, engine_factory).to_json()
        break
    return summary


# ----------------------------------------------------------------------
# CLI: python -m repro conformance ...
# ----------------------------------------------------------------------


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro conformance",
        description="Differential privacy-conformance harness for the rule engine.",
    )
    parser.add_argument("--trials", type=int, default=200, help="number of seeded trials")
    parser.add_argument("--seed", type=int, default=7, help="corpus seed")
    parser.add_argument(
        "--mutate",
        choices=sorted(MUTATIONS),
        default=None,
        help="run against a deliberately broken engine or compiler "
        "(harness smoke test)",
    )
    parser.add_argument(
        "--expect-divergence",
        action="store_true",
        help="invert the exit code: succeed only if a divergence was found",
    )
    parser.add_argument(
        "--end-to-end-every",
        type=int,
        default=25,
        help="run the real-service query-path check every N trials (0 = never)",
    )
    parser.add_argument("--no-shrink", action="store_true", help="skip shrinking")
    parser.add_argument(
        "--out", default=None, help="write the shrunken repro JSON to this file"
    )
    args = parser.parse_args(argv)

    summary = run_conformance(
        args.trials,
        args.seed,
        mutation=args.mutate,
        end_to_end_every=args.end_to_end_every,
        shrink=not args.no_shrink,
    )

    label = f" against mutated engine {args.mutate!r}" if args.mutate else ""
    print(f"conformance: {summary.trials} trials, seed {summary.seed}{label}")
    print(f"  engine-vs-oracle divergences: {summary.divergences}")
    print(f"  invariant violations:         {summary.violations}")
    print(f"  end-to-end query-path runs:   {summary.end_to_end_runs}")
    if summary.ok:
        print("  OK — engine conforms to the reference oracle")
    else:
        print(f"  FAIL at trial {summary.failed_index} — shrunken repro follows")
        print(json.dumps(summary.repro, indent=2, sort_keys=True))
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(summary.to_json(), fh, indent=2, sort_keys=True)
            print(f"  repro written to {args.out}")

    if args.expect_divergence:
        return 0 if not summary.ok else 1
    return 0 if summary.ok else 1


if __name__ == "__main__":
    sys.exit(main())
