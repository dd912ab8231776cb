"""The rule compiler: one contributor's rules, lowered once, evaluated many times.

:class:`~repro.rules.engine.RuleEngine` decides every release through a
:class:`CompiledRuleSet`.  Evaluating rules as written would re-derive
everything per segment — consumer buckets, sensor-group expansion,
context-label grouping, dependency-graph lookups, ``datetime``
arithmetic for weekly windows — so a contributor's rule set is compiled
**once per rules-version epoch** into:

* **consumer buckets** — rule indices keyed by consumer name, with a
  memo from resolved principal sets to the deduplicated candidate list
  (wildcard bucket first, then principals in sorted order); each batch
  narrows that list once per distinct segment-channel tuple to the rules
  whose sensor scope could apply;
* **interval structure** — each rule's static time ranges pre-coalesced
  into disjoint sorted windows and its weekly windows pre-split per
  weekday into millisecond offsets (midnight wrap resolved at compile
  time).  A batch resolves each timed rule's matching windows **once**,
  against the span its segments cover — a rule with none is dropped for
  the whole batch — and clips them per segment, so piece membership is
  pointer-walking over sorted tuples;
* **resolved regions** — a location rule's place labels looked up once;
  a segment's capture point is tested with ``Region.contains`` on them;
* **dependency-closure bitmasks** — one bit per channel and per context
  category, with ``channels → revealable contexts`` and
  ``context → revealing channels`` masks precomputed from
  :class:`~repro.rules.dependency.DependencyGraph`, replacing per-piece
  graph traversals with integer ANDs;
* **deny-first short-circuit** — a piece's matching rules are scanned
  for an unscoped Deny *before* any grant computation; deny dominance
  (machine-checked by the C8 conformance oracle) makes the early return
  safe.

Correctness is pinned from outside: the conformance sweep
(:mod:`repro.conformance.runner`) diffs every release against the
brute-force oracle, and ``tests/conformance/golden_release_digests.json``
pins the exact wire payload.  The arguments that make precomputation
safe are stated where they are used (coalesce distributes over span
intersection: :func:`_compile_time`; a batch's windows clip to each
segment's own: ``_matching_windows``; pruning by the batch span:
``evaluate_batch``; piece membership reduces to a start-point test:
``_time_pieces``; deny dominance: ``_decide``);
docs/ARCHITECTURE.md, "The rule engine", lists the evaluation order and
the test that pins each step.

Artifacts are cached by :class:`CompiledRuleCache` keyed on the
store-wide ``rules_version`` epoch — the same invariant the release
cache rides, moved by rule mutations, restores and places assignments
alike — so a stale artifact is unreachable by construction, and nothing
drops artifacts wholesale.
"""

from __future__ import annotations

import time as _time
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Mapping, Optional

from repro.datastore.wavesegment import WaveSegment
from repro.exceptions import RuleError
from repro.obs import NOOP_OBS
from repro.rules.abstraction import coarsen_context_label
from repro.rules.dependency import DEFAULT_DEPENDENCIES, DependencyGraph
from repro.rules.engine import ReleasedSegment, _GPS_CHANNELS, _shape_segment
from repro.rules.model import (
    LOCATION_ASPECT,
    LOCATION_LEVELS,
    Rule,
    TIME_ASPECT,
    TIME_LEVELS,
)
from repro.sensors.channels import CHANNELS
from repro.sensors.contexts import CONTEXTS, _LABEL_PREDICATES
from repro.util.geo import LabeledPlace, LatLon, Region, abstract_location
from repro.util.timeutil import (
    Interval,
    WEEKDAY_NAMES,
    coalesce_intervals,
    truncate_timestamp,
)

_MS_PER_MINUTE = 60_000
_MS_PER_DAY = 86_400_000

#: Upper bound on memoized principal sets (one query audience each).
CANDIDATE_MEMO_MAX = 4096

_NOTSHARE_LOC = len(LOCATION_LEVELS) - 1
_NOTSHARE_TIME = len(TIME_LEVELS) - 1

_KIND_ALLOW = 0
_KIND_DENY = 1
_KIND_ABSTRACTION = 2

#: A piece decision: an unscoped Deny matched (counted on every piece).
_FULL_DENY = object()


@dataclass(frozen=True)
class CompiledRule:
    """One rule lowered to precomputed match/effect structures.

    Attributes:
        index: position in the contributor's rule list (bucket key).
        rule: the source :class:`~repro.rules.model.Rule` (ids, messages).
        kind: 0 = allow, 1 = deny, 2 = abstraction (int compare is the
            hottest branch in piece resolution).
        scope_mask: channel bitmask of the sensor scope, or None for
            "all channels of the segment".
        ctx_req: ``((category, accepted_values), ...)`` — the context
            condition compiled to per-category accepted-value frozensets
            (AND across categories, OR within one).
        regions: None when the rule has no location condition, else its
            resolved region geometries (labels looked up through the
            contributor's places at compile time; an undefined label
            contributes nothing, so ``regions == ()`` never matches).
        time_unconstrained: True when the rule has no time condition.
        static_windows: pre-coalesced, empties-dropped static time ranges
            as sorted disjoint ``(start_ms, end_ms)`` tuples.
        day_windows: per-weekday (Mon-first) merged clock windows as
            ``(start_offset_ms, end_offset_ms)`` tuples, or None when the
            rule has no repeated windows.
        abs_location: Location ladder index of the abstraction action
            (0 when the aspect is untouched).
        abs_time: Time ladder index of the abstraction action.
        abs_contexts: ``((category_position, ladder_index), ...)`` for the
            context aspects the abstraction action names.
    """

    index: int
    rule: Rule
    kind: int
    scope_mask: Optional[int]
    ctx_req: tuple
    regions: Optional[tuple]
    time_unconstrained: bool
    static_windows: tuple
    day_windows: Optional[tuple]
    abs_location: int
    abs_time: int
    abs_contexts: tuple


def _compile_time(rule: Rule) -> tuple:
    """Lower a rule's time condition to static + per-weekday windows.

    Static intervals are filtered of zero-length entries (the runtime
    ``Interval.intersect`` drops them unconditionally) and coalesced once:
    union distributes over span intersection, so coalescing before the
    span is known yields the same canonical disjoint list a per-segment
    ``matching_intervals`` call would.  Weekly windows are split at
    midnight exactly as
    :meth:`~repro.util.timeutil.TimeCondition.matching_intervals` does
    (wrap → ``[start, 1440)`` + ``[0, end)``; start == end → full day)
    and merged per weekday.
    """
    tc = rule.time
    if tc.is_unconstrained():
        return True, (), None
    statics = coalesce_intervals(iv for iv in tc.intervals if iv.start < iv.end)
    static_windows = tuple((iv.start, iv.end) for iv in statics)
    per_day: list = [[] for _ in WEEKDAY_NAMES]
    for rt in tc.repeated:
        if rt.start_minute < rt.end_minute:
            windows = [(rt.start_minute, rt.end_minute)]
        elif rt.start_minute == rt.end_minute:
            windows = [(0, 1440)]
        else:
            windows = [(rt.start_minute, 1440), (0, rt.end_minute)]
        windows = [(lo, hi) for lo, hi in windows if lo < hi]
        for day in rt.days:
            per_day[WEEKDAY_NAMES.index(day)].extend(
                (lo * _MS_PER_MINUTE, hi * _MS_PER_MINUTE) for lo, hi in windows
            )
    day_windows: Optional[tuple] = None
    if any(per_day):
        day_windows = tuple(tuple(_merge_windows(w)) for w in per_day)
    return False, static_windows, day_windows


def _merge_windows(windows: list) -> list:
    """Sort and merge overlapping/adjacent ``(start, end)`` tuples."""
    merged: list = []
    for start, end in sorted(windows):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1][1] = end
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


class CompiledRuleSet:
    """One contributor's rules in compiled, batch-evaluable form.

    The artifact is immutable once built (internal channel-table growth
    for never-registered channel names aside) and is keyed externally by
    the store-wide rules-version epoch; see :class:`CompiledRuleCache`.
    Evaluation takes the already-resolved principal set — membership is a
    query-time input, never baked into the artifact.
    """

    def __init__(
        self,
        rules: Iterable[Rule] = (),
        places: Optional[Mapping[str, LabeledPlace]] = None,
        *,
        dependencies: Optional[DependencyGraph] = None,
        enforce_closure: bool = True,
        contributor: str = "",
        obs=None,
    ):
        self.contributor = contributor
        self.rules = tuple(rules)
        self.places = dict(places or {})
        self.dependencies = dependencies or DEFAULT_DEPENDENCIES
        self.enforce_closure = enforce_closure

        # --- category tables --------------------------------------------
        # Sharing categories (those with an abstraction ladder) first, in
        # registry order; graph-only categories after.  A graph-only
        # category can never be shared raw, so any channel revealing one
        # is always closure-blocked (only registry categories have a raw
        # ladder rung to be shared at).
        self._sharing_cats = tuple(CONTEXTS)
        extra = tuple(c for c in self.dependencies.contexts if c not in CONTEXTS)
        self._cat_bit = {
            name: i for i, name in enumerate(self._sharing_cats + extra)
        }
        self._sharing_cats_mask = (1 << len(self._sharing_cats)) - 1
        self._sharing_pos = {name: i for i, name in enumerate(self._sharing_cats)}
        self._ladders = tuple(
            CONTEXTS[name].abstraction_levels for name in self._sharing_cats
        )
        self._ctx_zero = tuple(0 for _ in self._sharing_cats)
        self._ctx_notshare = tuple(
            ladder.index("NotShare") if "NotShare" in ladder else -1
            for ladder in self._ladders
        )

        # --- channel tables ---------------------------------------------
        # Registered channels get stable bits up front; segment channels
        # the registry has never heard of get bits on first sight with a
        # context mask straight from the dependency graph (usually zero).
        self._channel_bits: dict = {}
        self._bit_channels: list = []
        self._channel_ctx_masks: list = []
        for name in sorted(CHANNELS):
            self._channel_bit(name)
        for spec in self.dependencies.contexts.values():
            for name in spec.source_channels:
                self._channel_bit(name)
        self._gps_mask = 0
        for name in _GPS_CHANNELS:
            self._gps_mask |= 1 << self._channel_bit(name)
        # context category -> mask of channels that can reveal it (label
        # eligibility: `channels_revealing(category) & granted`).
        self._revealing = tuple(
            (self._cat_bit[name], self._mask_of(self.dependencies.channels_revealing(name)))
            for name in self.dependencies.contexts
        )
        self._seg_mask_memo: dict = {}

        # --- per-rule lowering ------------------------------------------
        compiled: list = []
        for index, rule in enumerate(self.rules):
            compiled.append(self._compile_rule(index, rule))
        self.compiled: tuple = tuple(compiled)

        # --- consumer buckets + memo ------------------------------------
        self._buckets: dict = {None: []}
        for cr in self.compiled:
            if not cr.rule.consumers:
                self._buckets[None].append(cr.index)
            else:
                for consumer in cr.rule.consumers:
                    self._buckets.setdefault(consumer, []).append(cr.index)
        self._candidate_memo: OrderedDict = OrderedDict()
        # (channel mask, piece rule indices) -> _decide's answer.
        self._decision_memo: OrderedDict = OrderedDict()

        # --- observability ----------------------------------------------
        self.obs = obs or NOOP_OBS
        m = self.obs.metrics
        self._c_batches = m.counter("compiled_eval_batches_total")
        self._c_segments = m.counter("compiled_eval_segments_total")
        self._c_bucket_skips = m.counter("compiled_bucket_skips_total")
        self._c_time_prunes = m.counter("compiled_time_prunes_total")
        self._c_full_deny = m.counter("compiled_full_deny_short_circuits_total")
        self._c_default_deny = m.counter("compiled_default_deny_total")

    # ------------------------------------------------------------------
    # Compile-time lowering
    # ------------------------------------------------------------------

    def _channel_bit(self, name: str) -> int:
        """Bit position of a channel name, assigning one on first sight."""
        bit = self._channel_bits.get(name)
        if bit is None:
            bit = len(self._bit_channels)
            self._channel_bits[name] = bit
            self._bit_channels.append(name)
            mask = 0
            for category in self.dependencies.contexts_revealed_by(name):
                mask |= 1 << self._cat_bit[category]
            self._channel_ctx_masks.append(mask)
        return bit

    def _mask_of(self, names: Iterable[str]) -> int:
        mask = 0
        for name in names:
            mask |= 1 << self._channel_bit(name)
        return mask

    def _compile_rule(self, index: int, rule: Rule) -> CompiledRule:
        """Lower one rule (see :class:`CompiledRule` for field semantics)."""
        scope = rule.sensor_channels()
        scope_mask = None if scope is None else self._mask_of(scope)

        grouped: dict = {}
        for category, labels in rule.context_requirements().items():
            accepted: set = set()
            for label in labels:
                accepted.update(_LABEL_PREDICATES[label][1])
            grouped[category] = frozenset(accepted)
        ctx_req = tuple(grouped.items())

        regions = None
        if rule.location_labels or rule.location_regions:
            regions = tuple(
                self.places[label].region
                for label in rule.location_labels
                if label in self.places
            ) + tuple(rule.location_regions)

        time_unconstrained, static_windows, day_windows = _compile_time(rule)

        abs_location = 0
        abs_time = 0
        abs_contexts: list = []
        if rule.action.is_abstraction:
            for aspect, level in rule.action.abstraction.items():
                if aspect == LOCATION_ASPECT:
                    abs_location = LOCATION_LEVELS.index(level)
                elif aspect == TIME_ASPECT:
                    abs_time = TIME_LEVELS.index(level)
                else:
                    pos = self._sharing_pos[aspect]
                    abs_contexts.append((pos, self._ladders[pos].index(level)))
        kind = (
            _KIND_ALLOW
            if rule.action.is_allow
            else (_KIND_DENY if rule.action.is_deny else _KIND_ABSTRACTION)
        )
        return CompiledRule(
            index=index,
            rule=rule,
            kind=kind,
            scope_mask=scope_mask,
            ctx_req=ctx_req,
            regions=regions,
            time_unconstrained=time_unconstrained,
            static_windows=static_windows,
            day_windows=day_windows,
            abs_location=abs_location,
            abs_time=abs_time,
            abs_contexts=tuple(abs_contexts),
        )

    # ------------------------------------------------------------------
    # Mutation hook (conformance harness only)
    # ------------------------------------------------------------------

    def mutated_copy(
        self, *, compiled=None, zero_dependency_masks=False, batch_span=None
    ):
        """Return a copy with substituted internals — a deliberate-bug hook.

        The conformance mutation smokes (:mod:`repro.conformance.runner`)
        use this to build *broken* artifacts — off-by-one interval
        boundaries, zeroed dependency bitmasks, a batch window that
        misses segments — that the oracle differential sweep must catch.
        The candidate and decision memos are reset so the substituted
        rules are actually consulted.  Never used on the serving path.
        """
        import copy

        clone = copy.copy(self)
        clone._candidate_memo = OrderedDict()
        clone._decision_memo = OrderedDict()
        clone._seg_mask_memo = dict(self._seg_mask_memo)
        if compiled is not None:
            clone.compiled = tuple(compiled)
        if zero_dependency_masks:
            clone._channel_ctx_masks = [0] * len(self._channel_ctx_masks)
            clone._revealing = tuple((bit, 0) for bit, _ in self._revealing)
        if batch_span is not None:
            clone._batch_span = batch_span
        return clone

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def _candidates(self, principals: FrozenSet[str]) -> tuple:
        """Deduplicated candidate rules: wildcard bucket, then sorted principals."""
        memo = self._candidate_memo
        cached = memo.get(principals)
        if cached is not None:
            return cached
        seen: set = set()
        out: list = []
        compiled = self.compiled
        for key in [None, *sorted(principals)]:
            for index in self._buckets.get(key, ()):
                cr = compiled[index]
                rid = cr.rule.rule_id
                if rid not in seen:
                    seen.add(rid)
                    out.append(cr)
        result = tuple(out)
        if len(memo) >= CANDIDATE_MEMO_MAX:
            memo.popitem(last=False)
        memo[principals] = result
        return result

    def _segment_mask(self, channels: tuple) -> int:
        """Bitmask of a segment's channel tuple (memoized per tuple)."""
        mask = self._seg_mask_memo.get(channels)
        if mask is None:
            mask = 0
            for name in channels:
                mask |= 1 << self._channel_bit(name)
            self._seg_mask_memo[channels] = mask
        return mask

    @staticmethod
    def _batch_span(spans: list) -> tuple:
        """``[min start, max end)`` over the batch's segment spans."""
        return min(start for start, _ in spans), max(end for _, end in spans)

    def evaluate_batch(
        self, principals: FrozenSet[str], segments: Iterable[WaveSegment]
    ) -> list:
        """Evaluate a whole window of segments for one principal set.

        Everything that does not depend on the individual segment happens
        once for the batch: candidate resolution (bucket walk + dedup),
        each timed candidate's matching windows over the batch span, and
        the sensor-scope filter per distinct channel tuple.  A timed rule
        with no window inside the batch span cannot match any piece of
        any segment in it, so it leaves the candidate list for the whole
        batch — whatever its action: a pruned Allow grants nothing, a
        pruned Deny or abstraction restricts nothing, and the survivors
        keep their relative order (which decides the ``Withheld`` blame).
        Returns released pieces in segment order.
        """
        segments = list(segments)
        candidates = self._candidates(principals)
        out: list = []
        time_pruned = 0
        if segments:
            spans = [(segment.start_ms, segment.end_ms) for segment in segments]
            lo, hi = self._batch_span(spans)
            live: list = []
            windows: dict = {}  # rule index -> (matching windows, their ends)
            for cr in candidates:
                if not cr.time_unconstrained:
                    ivs = self._matching_windows(cr, lo, hi)
                    if not ivs:
                        continue
                    windows[cr.index] = (ivs, [we for _, we in ivs])
                live.append(cr)
            time_pruned = len(candidates) - len(live)
            # A rule whose sensor scope shares no channel with the segment
            # can never apply, whatever else holds — and one device's
            # sample windows repeat a handful of channel tuples.
            scoped: dict = {}  # channel tuple -> (its bitmask, rules in scope)
            for segment, (start, end) in zip(segments, spans):
                scope = scoped.get(segment.channels)
                if scope is None:
                    seg_mask = self._segment_mask(segment.channels)
                    scope = scoped[segment.channels] = (
                        seg_mask,
                        [
                            cr
                            for cr in live
                            if cr.scope_mask is None or cr.scope_mask & seg_mask
                        ],
                    )
                out.extend(self._evaluate_segment(segment, start, end, *scope, windows))
        self._c_batches.inc()
        self._c_segments.inc(len(segments))
        self._c_bucket_skips.inc((len(self.compiled) - len(candidates)) * len(segments))
        self._c_time_prunes.inc(time_pruned)
        return out

    def evaluate_segment(
        self, principals: FrozenSet[str], segment: WaveSegment
    ) -> list:
        """Evaluate one segment for one principal set: the batch of one."""
        return self.evaluate_batch(principals, (segment,))

    def _evaluate_segment(
        self,
        segment: WaveSegment,
        start: int,
        end: int,
        seg_mask: int,
        candidates: list,
        windows: dict,
    ) -> list:
        """Release one segment, spanning ``[start, end)``, of a batch.

        ``candidates`` are already scope-filtered for the segment's
        channel tuple; ``windows`` holds each timed candidate's matching
        windows over the batch span, clipped here to the segment's.
        """
        location = segment.location
        context = segment.context

        applicable: list = []
        clipped: dict = {}  # timed rule index -> its windows inside this segment
        has_allow = False
        for cr in candidates:
            if cr.regions is not None and (
                location is None
                or not any(region.contains(location) for region in cr.regions)
            ):
                continue
            if cr.ctx_req:
                matched = True
                for category, accepted in cr.ctx_req:
                    value = context.get(category)
                    if value is None or value not in accepted:
                        matched = False
                        break
                if not matched:
                    continue
            if not cr.time_unconstrained:
                ivs, ends = windows[cr.index]
                mine: list = []
                for pos in range(bisect_right(ends, start), len(ivs)):
                    ws, we = ivs[pos]
                    if ws >= end:
                        break
                    mine.append((ws if ws > start else start, we if we < end else end))
                if not mine:
                    continue  # matches no instant of this segment
                clipped[cr.index] = mine
            applicable.append(cr)
            if cr.kind == _KIND_ALLOW:
                has_allow = True

        if not has_allow:
            self._c_default_deny.inc()
            return []  # default deny: nothing grants access

        released: list = []
        for piece, piece_rules in self._time_pieces(start, end, applicable, clipped):
            item = self._release_piece(segment, piece, piece_rules, seg_mask)
            if item is not None and not item.is_empty():
                released.append(item)
        return released

    def _matching_windows(self, cr: CompiledRule, start: int, end: int) -> list:
        """The rule's matching sub-windows of ``[start, end)``, coalesced.

        Equivalent to ``rule.time.matching_intervals(span)`` but over the
        precompiled structures: static windows are already disjoint and
        sorted, weekly windows expand from per-weekday ms offsets with
        weekday-by-arithmetic instead of ``datetime``, and the final merge
        produces the same canonical disjoint list ``coalesce_intervals``
        would (both compute the canonical decomposition of the same
        union, and neither side carries zero-length windows).  Clipping
        that list to a sub-span yields the sub-span's own canonical list,
        which is why one call per batch serves every segment in it.
        """
        out: list = []
        for ws, we in cr.static_windows:
            if we <= start:
                continue
            if ws >= end:
                break
            out.append((ws if ws > start else start, we if we < end else end))
        day_windows = cr.day_windows
        if day_windows is not None:
            day = (start // _MS_PER_DAY) * _MS_PER_DAY
            while day < end:
                for lo, hi in day_windows[(day // _MS_PER_DAY + 3) % 7]:
                    ws = day + lo
                    we = day + hi
                    if we > start and ws < end:
                        out.append((ws if ws > start else start, we if we < end else end))
                day += _MS_PER_DAY
            out.sort()
        merged: list = []
        for ws, we in out:
            if merged and ws <= merged[-1][1]:
                if we > merged[-1][1]:
                    merged[-1][1] = we
            else:
                merged.append([ws, we])
        return merged

    @staticmethod
    def _time_pieces(start: int, end: int, applicable: list, clipped: dict) -> list:
        """Split ``[start, end)`` where time-condition matching flips.

        Every timed rule's windows inside the segment (``clipped``)
        contribute boundary points, and a piece belongs to a timed rule
        iff some window contains it — which, because all window
        boundaries are piece boundaries, reduces to a start-point test
        walked with a per-rule pointer over the sorted windows.
        """
        if not clipped:
            return [(Interval(start, end), applicable)]
        boundaries = {start, end}
        for ivs in clipped.values():
            for ws, we in ivs:
                boundaries.add(ws)
                boundaries.add(we)
        points = sorted(boundaries)
        cursor = dict.fromkeys(clipped, 0)
        pieces: list = []
        for lo, hi in zip(points, points[1:]):
            piece_rules: list = []
            for cr in applicable:
                if cr.time_unconstrained:
                    piece_rules.append(cr)
                    continue
                ivs = clipped[cr.index]
                pos = cursor[cr.index]
                while pos < len(ivs) and ivs[pos][1] <= lo:
                    pos += 1
                cursor[cr.index] = pos
                if pos < len(ivs) and ivs[pos][0] <= lo:
                    piece_rules.append(cr)
            pieces.append((Interval(lo, hi), piece_rules))
        return pieces

    def _bit_names(self, mask: int) -> list:
        """Sorted channel names of a mask's set bits."""
        names = self._bit_channels
        out: list = []
        bit = 0
        while mask:
            if mask & 1:
                out.append(names[bit])
            mask >>= 1
            bit += 1
        out.sort()
        return out

    def _release_piece(
        self,
        segment: WaveSegment,
        piece: Interval,
        rules: list,
        seg_mask: int,
    ) -> Optional[ReleasedSegment]:
        """One piece released: the memoized decision, then its shaping —
        timestamp, waveform cut, abstracted location, coarsened labels."""
        decision = self._decision(rules, seg_mask)
        if decision is _FULL_DENY:
            self._c_full_deny.inc()
            return None
        if not decision:
            return None
        names, withheld, eligible, loc_idx, time_idx, levels = decision
        time_level = TIME_LEVELS[time_idx]
        timestamp: Optional[int] = None
        if time_idx != _NOTSHARE_TIME:
            timestamp = truncate_timestamp(piece.start, time_level)
        out_segment: Optional[WaveSegment] = None
        if names:
            out_segment = _shape_segment(segment, piece, names, time_level, timestamp)

        location_level = LOCATION_LEVELS[loc_idx]
        location = None
        if segment.location is not None and loc_idx != _NOTSHARE_LOC:
            location = abstract_location(segment.location, location_level)

        labels: dict = {}
        for category, fine_label in segment.context.items():
            pos = self._sharing_pos.get(category)
            if pos is None or not (eligible >> self._cat_bit[category]) & 1:
                continue
            label = coarsen_context_label(
                category, fine_label, self._ladders[pos][levels[pos]]
            )
            if label is not None:
                labels[category] = label

        if out_segment is None and not labels:
            return None  # bare location/timestamp metadata would leak

        return ReleasedSegment(
            segment.contributor,
            piece,
            out_segment,
            timestamp,
            time_level,
            location,
            location_level,
            labels,
            dict(withheld),
        )

    def _decision(self, rules: list, seg_mask: int):
        """:meth:`_decide`, memoized per channel mask and rule indices.

        Within one artifact the decision depends on nothing else: the
        rules behind an index and every table the decision reads are fixed
        at compile time (a channel first seen later only adds a bit).  The
        memo dies with its artifact, and an artifact with its rules-version
        epoch, so it needs no invalidation of its own.
        """
        key = (seg_mask, *[cr.index for cr in rules])
        memo = self._decision_memo
        decision = memo.get(key)
        if decision is None:
            decision = self._decide(rules, seg_mask)
            if len(memo) >= CANDIDATE_MEMO_MAX:
                memo.popitem(last=False)
            memo[key] = decision
        return decision

    def _decide(self, rules: list, seg_mask: int):
        """What a piece of a segment with channels ``seg_mask``, matched by
        ``rules``, may release: :data:`_FULL_DENY`, ``()`` when nothing,
        or ``(granted channel names, withheld reasons, eligible category
        mask, location level, time level, context levels)``."""
        # Deny-first short-circuit: a matching unscoped Deny suppresses
        # the whole piece no matter what else matches (deny dominance —
        # invariant C8), so check it before computing any grant.
        has_allow = False
        for cr in rules:
            if cr.kind == _KIND_DENY and cr.scope_mask is None:
                return _FULL_DENY
            if cr.kind == _KIND_ALLOW:
                has_allow = True
        if not has_allow:
            return ()  # this window grants nothing

        granted = 0
        for cr in rules:
            if cr.kind == _KIND_ALLOW:
                granted |= seg_mask if cr.scope_mask is None else cr.scope_mask & seg_mask

        withheld: dict = {}
        for cr in rules:
            if cr.kind != _KIND_DENY:
                continue
            blocked = cr.scope_mask & seg_mask
            hit = blocked & granted
            if hit:
                reason = f"denied by rule {cr.rule.rule_id}"
                for name in self._bit_names(hit):
                    withheld[name] = reason
                granted &= ~blocked

        # Label eligibility, judged on the post-deny grant (before the
        # closure): which categories could the granted channels reveal?
        eligible = 0
        for cat_bit, revealing_mask in self._revealing:
            if revealing_mask & granted:
                eligible |= 1 << cat_bit

        # Coarsest-wins abstraction folding, as ladder-index maxima.
        loc_idx = 0
        time_idx = 0
        ctx_idx: Optional[list] = None
        for cr in rules:
            if cr.kind != _KIND_ABSTRACTION:
                continue
            if cr.abs_location > loc_idx:
                loc_idx = cr.abs_location
            if cr.abs_time > time_idx:
                time_idx = cr.abs_time
            for pos, level in cr.abs_contexts:
                if ctx_idx is None:
                    ctx_idx = list(self._ctx_zero)
                if level > ctx_idx[pos]:
                    ctx_idx[pos] = level
        levels = self._ctx_zero if ctx_idx is None else tuple(ctx_idx)
        if (
            loc_idx == _NOTSHARE_LOC
            and time_idx == _NOTSHARE_TIME
            and all(
                levels[i] == self._ctx_notshare[i] for i in range(len(levels))
            )
        ):
            return ()  # every aspect at NotShare — equivalent to deny

        # Dependency closure via bitmasks: a raw channel flows only if
        # every context it could reveal is itself shared raw.  Graph-only
        # categories never appear in raw_mask, so revealing one always
        # blocks.
        if self.enforce_closure:
            raw_mask = 0
            for i, level in enumerate(levels):
                if level == 0:
                    raw_mask |= 1 << i
            restricted_mask = self._sharing_cats_mask & ~raw_mask
            closed = 0
            probe = granted
            bit = 0
            masks = self._channel_ctx_masks
            while probe:
                if probe & 1 and masks[bit] & ~raw_mask:
                    closed |= 1 << bit
                probe >>= 1
                bit += 1
            if closed:
                names = self._bit_channels
                cats = self._sharing_cats
                b = 0
                rest = closed
                while rest:
                    if rest & 1:
                        revealed = sorted(
                            cats[i]
                            for i in range(len(cats))
                            if (masks[b] & restricted_mask) >> i & 1
                        )
                        withheld[names[b]] = (
                            "withheld: could reveal restricted context(s) "
                            f"{', '.join(revealed)}"
                        )
                    rest >>= 1
                    b += 1
                granted &= ~closed

        # Location coarser than raw coordinates forbids raw GPS channels.
        if loc_idx != 0:
            gps_hit = granted & self._gps_mask
            if gps_hit:
                reason = (
                    f"withheld: location abstracted to {LOCATION_LEVELS[loc_idx]}"
                )
                for name in self._bit_names(gps_hit):
                    withheld[name] = reason
            granted &= ~self._gps_mask

        return tuple(self._bit_names(granted)), withheld, eligible, loc_idx, time_idx, levels


def compile_rules(
    rules: Iterable[Rule] = (),
    places: Optional[Mapping[str, LabeledPlace]] = None,
    *,
    dependencies: Optional[DependencyGraph] = None,
    enforce_closure: bool = True,
    contributor: str = "",
    obs=None,
) -> CompiledRuleSet:
    """Compile one contributor's rules into a :class:`CompiledRuleSet`."""
    return CompiledRuleSet(
        rules,
        places,
        dependencies=dependencies,
        enforce_closure=enforce_closure,
        contributor=contributor,
        obs=obs,
    )


class CompiledRuleCache:
    """Epoch-keyed LRU of compiled artifacts, beside the release cache.

    A stale compiled artifact is a privacy leak of exactly the same shape
    as a stale cached decision, so the key copies the release cache's: it
    folds in the **store-wide rules-version epoch**, which moves on every
    rule mutation for any contributor, on every post-recovery/failover
    ``restore`` and on every labeled-places assignment — a rule or place
    state this process has never evaluated under can never hit an old
    entry; an old one ages out of the LRU.

    Compile telemetry (``rules_compile_total``, ``rules_compile_seconds``,
    hits) is exported through the shared metrics registry.
    """

    def __init__(self, capacity: int = 64, *, obs=None, store: str = ""):
        if capacity <= 0:
            raise RuleError(f"compiled-rule cache capacity must be positive: {capacity}")
        self.capacity = int(capacity)
        self._entries: OrderedDict = OrderedDict()
        self._obs = obs or NOOP_OBS
        m = self._obs.metrics
        labels = {"store": store} if store else {}
        self._c_compiles = m.counter("rules_compile_total", **labels)
        self._h_compile_s = m.histogram("rules_compile_seconds", **labels)
        self._c_hits = m.counter("compiled_cache_hits_total", **labels)

    def __len__(self) -> int:
        return len(self._entries)

    def artifact_for(
        self,
        contributor: str,
        *,
        epoch: int,
        fail_closed: bool,
        rules: Iterable[Rule],
        places: Optional[Mapping[str, LabeledPlace]] = None,
        dependencies: Optional[DependencyGraph] = None,
        enforce_closure: bool = True,
    ) -> CompiledRuleSet:
        """The compiled artifact for one contributor at one rule epoch.

        ``rules`` must already reflect ``fail_closed`` (the service passes
        an empty tuple for a fail-closed contributor); the flag still
        rides the key so lifting fail-closed without an epoch move could
        never resurrect a deny-everything artifact.
        """
        key = (contributor, int(epoch), bool(fail_closed), bool(enforce_closure))
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self._c_hits.inc()
            return entry
        started = _time.perf_counter()
        artifact = CompiledRuleSet(
            rules,
            places,
            dependencies=dependencies,
            enforce_closure=enforce_closure,
            contributor=contributor,
            obs=self._obs,
        )
        self._c_compiles.inc()
        self._h_compile_s.observe(_time.perf_counter() - started)
        self._entries[key] = artifact
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return artifact
