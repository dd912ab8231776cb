"""The privacy-rule evaluation engine.

For every (consumer, wave segment) pair the engine decides what — if
anything — leaves the remote data store.  :class:`RuleEngine` is the one
production decider: it owns a
:class:`~repro.rules.compiler.CompiledRuleSet` (one contributor's rules
lowered once into buckets, interval tables, resolved regions, and
dependency bitmasks) and a membership resolver, and every evaluation is
``artifact.evaluate_batch(membership(consumer), segments)``:

1. **Candidates** — rules are bucketed by consumer name, so evaluation
   cost scales with the rules that *could* apply, not the total rule
   count (benchmark C6 measures this).
2. **Matching** — timed rules are resolved once per batch against the
   span its segments cover, and a rule with no window there is dropped
   for the whole batch; piece-invariant conditions (location, context,
   sensor overlap) are checked once per segment; the batch's windows,
   clipped to the segment, then split it into pieces with a constant
   matching-rule set.
3. **Conflict resolution** — default deny (no matching Allow ⇒ nothing
   flows); Deny overrides Allow within its sensor scope; abstraction
   levels combine coarsest-wins.
4. **Dependency closure** — raw channels that could re-reveal any context
   not shared at raw level are withheld (Section 5.1's respiration/smoking
   example); GPS channels are additionally withheld whenever location is
   abstracted below raw coordinates.
5. **Release shaping** — surviving channels are sliced to the piece and
   re-anchored at the effective time level in one construction
   (:func:`_shape_segment`), location abstracted via the gazetteer, and
   context labels coarsened per ladder.

The result is a list of :class:`ReleasedSegment` — the exact payload the
query API returns to the data consumer.  The only other decider in the
repository is the brute-force conformance oracle
(:mod:`repro.conformance.oracle`), which shares no code with this path.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, FrozenSet, Iterable, Mapping, Optional

import numpy as np

from repro.datastore.codec import ENCODING_RAW, decode_frame_values, encode_values
from repro.datastore.wavesegment import TIME_CHANNEL, WaveSegment, check_format
from repro.exceptions import SchemaError, ValidationError
from repro.obs import NOOP_OBS
from repro.rules.dependency import DependencyGraph
from repro.rules.model import Rule
from repro.sensors.channels import GPS_LAT, GPS_LON
from repro.util.geo import LabeledPlace
from repro.util.idgen import stable_id
from repro.util.jsonutil import require_keys, require_type
from repro.util.timeutil import Interval

_GPS_CHANNELS = frozenset((GPS_LAT.name, GPS_LON.name))

#: What the pieces of a release share, in the order of a release frame's
#: header row: a release frame writes it once.
_HEADER = (
    "Contributor",
    "TimeLevel",
    "Location",
    "LocationLevel",
    "ContextLabels",
    "Withheld",
    "Format",
    "SamplingInterval",
)
_TEXT, _NUMBER = frozenset((str,)), frozenset((int, float))


def _self_membership(consumer: str) -> FrozenSet[str]:
    """Default membership resolver: a consumer is only itself."""
    return frozenset((consumer,))


class _DerivedInterval:
    """``ReleasedSegment.interval`` of a piece built without one — a uniform
    waveform or a label-only piece :func:`decode_release` reads: derived on
    first read and kept on the instance, as
    :class:`~repro.datastore.wavesegment._DerivedId` derives a cut's id.  A
    waveform spans its segment's ``interval``; labels alone span
    ``[Timestamp or 0, +1)``.  The class-level read raises, so the field
    keeps no default."""

    def __get__(self, piece, owner=None):
        if piece is None:
            raise AttributeError("interval")
        if piece.segment is not None:
            interval = piece.segment.interval
        else:
            start = piece.timestamp or 0
            interval = Interval(start, start + 1)
        vars(piece)["interval"] = interval
        return interval


@dataclass
class ReleasedSegment:
    """What a data consumer actually receives for one segment piece.

    Attributes:
        contributor: data owner.
        interval: the span of the underlying piece (engine bookkeeping;
            not revealed beyond ``timestamp``'s precision); derived when
            first read for a piece decoded without one.
        segment: surviving raw channels, time-sliced and timestamp-shaped,
            or None when only labels are released.
        timestamp: the released (possibly truncated) start time, or None
            when the Time aspect is NotShare.
        time_level: the effective time abstraction level.
        location: raw ``[lat, lon]``, an abstract place label string, or
            None when location is NotShare/unknown.
        location_level: the effective location abstraction level.
        context_labels: released context labels, post-coarsening.
        withheld: channel -> human-readable reason, for UI display.
    """

    contributor: str
    interval: Interval = _DerivedInterval()
    segment: Optional[WaveSegment] = None
    timestamp: Optional[int] = None
    time_level: str = "milliseconds"
    location: object = None
    location_level: str = "coordinates"
    context_labels: dict = field(default_factory=dict)
    withheld: dict = field(default_factory=dict)

    @classmethod
    def _of_checked(
        cls, contributor, segment, timestamp, time_level, location, location_level, labels, withheld
    ) -> "ReleasedSegment":
        """A piece built from cells :func:`decode_release` already checked,
        its own copies of them included, without an ``interval``: a piece
        left without one derives it when first read (:class:`_DerivedInterval`)."""
        piece = object.__new__(cls)
        piece.contributor = contributor
        piece.segment = segment
        piece.timestamp = timestamp
        piece.time_level = time_level
        piece.location = location
        piece.location_level = location_level
        piece.context_labels = labels
        piece.withheld = withheld
        return piece

    @property
    def n_samples(self) -> int:
        """Samples in the released piece; 0 when data is withheld."""
        return self.segment.n_samples if self.segment is not None else 0

    def channels(self) -> tuple:
        """Channels of the released piece; empty when data is withheld."""
        return self.segment.channels if self.segment is not None else ()

    def is_empty(self) -> bool:
        """True when no data, context, or location is actually released."""
        return self.segment is None and not self.context_labels and self.location is None

    def to_json(self) -> dict:
        """Deterministic JSON form of one piece, its waveform a Fig. 5
        segment: what release digests and output checks compare."""
        return {
            "Contributor": self.contributor,
            "Timestamp": self.timestamp,
            "TimeLevel": self.time_level,
            "Location": self.location,
            "LocationLevel": self.location_level,
            "ContextLabels": dict(self.context_labels),
            "Segment": None if self.segment is None else self.segment.to_json(),
            "Withheld": dict(self.withheld),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ReleasedSegment":
        """Parse the :meth:`to_json` form of one piece."""
        seg = obj.get("Segment")
        segment = WaveSegment.from_json(seg) if seg else None
        if segment is not None:
            interval = segment.interval
        else:
            ts = obj.get("Timestamp") or 0
            interval = Interval(ts, ts + 1)
        return cls(
            contributor=str(obj.get("Contributor", "")),
            interval=interval,
            segment=segment,
            timestamp=obj.get("Timestamp"),
            time_level=str(obj.get("TimeLevel", "milliseconds")),
            location=obj.get("Location"),
            location_level=str(obj.get("LocationLevel", "coordinates")),
            context_labels=dict(obj.get("ContextLabels", {})),
            withheld=dict(obj.get("Withheld", {})),
        )


def encode_release(released: Iterable[ReleasedSegment]) -> dict:
    """The wire form of a consumer release: one frame, one value blob.

    ``Headers`` is each distinct :data:`_HEADER` — what pieces share, a
    waveform's ``Format`` and ``SamplingInterval`` included — once, as a
    row in that order, first use first, keyed by its bits (as
    :func:`repro.sensors.packets.encode_upload` keys a capture); ``Pieces``
    one row a piece, ``[header, Timestamp]`` for labels alone or ``[header,
    Timestamp, Offset, Samples]`` for a waveform, integers all
    (``Timestamp`` is null when time is not shared; the waveform starts at
    ``(Timestamp or 0) + Offset``, so ``Offset`` is 0 where the timestamp
    is exact); ``Values`` every waveform's samples, row-major and in piece
    order, as one codec blob (the paper's wave-segment argument applied to
    the release).  A waveform's ``segment_id`` does not travel: it is
    derived from the contributor, ``Format``, start and ``Samples`` the
    frame already carries, so :func:`decode_release` derives it again.
    The only producer of a query response's ``Released`` member;
    :func:`decode_release` is its only parser.  A waveform that is not
    :meth:`~WaveSegment.bare`, not its piece's contributor's or set under an
    id other than its own derivation has no place in the frame: a
    ``ValidationError``.
    """
    index, headers, rows, arrays = {}, [], [], []
    for r in released:
        segment, location = r.segment, r.location
        where = location
        if location is not None and type(location) is not str:
            where = struct.pack("<2d", *location)
        shape = None if segment is None else (segment.channels, segment.interval_ms)
        labels, withheld = frozenset(r.context_labels.items()), frozenset(r.withheld.items())
        key = (r.contributor, r.time_level, where, r.location_level, labels, withheld, shape)
        header = index.get(key)
        if header is None:
            header = index[key] = len(headers)
            headers.append(
                [
                    r.contributor,
                    r.time_level,
                    location,
                    r.location_level,
                    dict(r.context_labels),
                    dict(r.withheld),
                    None if segment is None else list(segment.channels),
                    None if segment is None else segment.interval_ms,
                ]
            )
        if segment is None:
            rows.append([header, r.timestamp])
            continue
        # Only an id set at construction can differ from its derivation:
        # a cut has none until it is read, so no cut is hashed here.
        given, values = vars(segment).get("segment_id"), segment.values
        if (
            segment.location is not None
            or segment.context
            or segment.contributor != r.contributor
            or given is not None
            and given != stable_id(r.contributor, segment.channels, segment.start_ms, len(values))
        ):
            raise ValidationError(
                f"released piece {len(rows)}: a waveform travels bare (no capture location, "
                "no stored context), as its piece's contributor's, under its own id"
            )
        rows.append([header, r.timestamp, segment.start_ms - (r.timestamp or 0), len(values)])
        arrays.append(values.ravel())
    flat = np.concatenate(arrays) if arrays else np.empty(0)
    return {
        "Headers": headers,
        "Pieces": rows,
        "Values": encode_values(flat.reshape(-1, 1), ENCODING_RAW),
    }


def decode_release(frame: dict) -> list:
    """Parse a release frame into its :class:`ReleasedSegment` pieces.

    Each header row is parsed once, coerced nowhere, and its ``Format`` held
    once to :func:`~repro.datastore.wavesegment.check_format`; a row then
    only has to be integers naming a header that fits it, with a positive
    sample count the blob can pay.  The blob is read in place: each
    waveform's ``values`` is a read-only view of the frame's own ``bytes``
    (so holding a piece keeps its release's samples alive) — a
    single-channel one a row slice of one column view — and its
    ``segment_id`` is derived from its header and row when first read.  A
    piece is built from checked cells (:meth:`ReleasedSegment._of_checked`)
    and derives its ``interval`` when first read, but a non-uniform
    waveform's is read here: its ``Time`` column must not run backwards.
    :class:`~repro.exceptions.SchemaError`, and no piece returned, unless
    ``Values`` is one ``le-f64`` blob of one channel, every header parses
    and is used, and the rows consume the blob exactly.
    """
    require_keys(frame, ("Headers", "Pieces", "Values"), where="release frame")
    flat = decode_frame_values(frame["Values"], where="release frame")
    headers = [
        _header(obj, n)
        for n, obj in enumerate(require_type(frame["Headers"], list, where="release frame Headers"))
    ]
    used = [False] * len(headers)
    column = flat.reshape(-1, 1)  # a single-channel waveform is a row slice of it
    pieces, offset, size = [], 0, flat.size
    new_waveform, new_piece = WaveSegment._of_checked_format, ReleasedSegment._of_checked
    for n, row in enumerate(require_type(frame["Pieces"], list, where="release frame Pieces")):
        cells = len(row) if type(row) is list else 0
        if cells == 4:
            header, timestamp, offset_ms, count = row
        elif cells == 2:
            header, timestamp = row
            offset_ms = count = 0
        else:
            raise SchemaError(f"release frame: piece {n} is not a row of two or four integers")
        if not (
            type(header) is type(offset_ms) is type(count) is int
            and (timestamp is None or type(timestamp) is int)
        ):
            raise SchemaError(f"release frame: piece {n} is not a row of integers")
        if not 0 <= header < len(headers):
            raise SchemaError(f"release frame: piece {n} names no header")
        contributor, time_level, location, location_level, labels, withheld, channels, interval = (
            headers[header]
        )
        if (cells == 4) != (channels is not None):
            raise SchemaError(f"release frame: piece {n} is a row its header does not fit")
        used[header] = True
        segment = None
        if cells == 4:
            width = len(channels)
            end = offset + count * width
            if count <= 0 or end > size:
                raise SchemaError(f"release frame: piece {n} has no samples or overruns the blob")
            values = column[offset:end] if width == 1 else flat[offset:end].reshape(count, width)
            segment = new_waveform(
                contributor, channels, (timestamp or 0) + offset_ms, interval, values
            )
            offset = end
        piece = new_piece(
            contributor,
            segment,
            timestamp,
            time_level,
            list(location) if type(location) is list else location,
            location_level,
            dict(labels),
            dict(withheld),
        )
        if segment is not None and interval is None:
            try:  # derived now, so a Time column that runs backwards refuses the frame
                piece.interval = segment.interval
            except ValidationError as exc:
                raise SchemaError(f"release frame: piece {n}: {exc}") from None
        pieces.append(piece)
    if offset != size or not all(used):
        raise SchemaError(
            f"release frame: pieces consume {offset} of {size} values "
            f"and {sum(used)} of {len(headers)} headers"
        )
    return pieces


def _header(obj, n: int) -> tuple:
    """One release-frame header row, its cells in :data:`_HEADER` order."""
    if type(obj) is not list or len(obj) != len(_HEADER):
        raise SchemaError(f"release frame: header {n} is not exactly [{', '.join(_HEADER)}]")
    contributor, time_level, location, location_level, labels, withheld, channels, interval = obj
    if not (
        type(contributor) is type(time_level) is type(location_level) is str
        and (
            location is None
            or type(location) is str
            or type(location) is list and len(location) == 2 and {*map(type, location)} <= _NUMBER
        )
        and type(labels) is type(withheld) is dict
        and {*map(type, labels), *map(type, labels.values())} <= _TEXT
        and {*map(type, withheld), *map(type, withheld.values())} <= _TEXT
    ):
        raise SchemaError(
            f"release frame: header {n} is not {{Contributor, TimeLevel, LocationLevel: text, "
            "Location: null, text or two numbers, ContextLabels, Withheld: {text: text}}"
        )
    if channels is not None or interval is not None:
        if not (
            type(channels) is list
            and {*map(type, channels)} <= _TEXT
            and (interval is None or type(interval) is int)
        ):
            raise SchemaError(
                f"release frame: header {n} is not {{Format: [text], SamplingInterval: "
                "null or an integer}"
            )
        channels = tuple(channels)
        try:
            check_format(channels, interval)
        except ValidationError as exc:
            raise SchemaError(f"release frame: header {n}: {exc}") from None
    return contributor, time_level, location, location_level, labels, withheld, channels, interval


def _shape_segment(
    segment: WaveSegment,
    piece: Interval,
    channels: list,
    time_level: str,
    timestamp: Optional[int],
) -> Optional[WaveSegment]:
    """The data a piece releases: sliced, projected, re-anchored, stripped bare.

    The clock is re-anchored to the granted precision: at the
    ``milliseconds`` level the true start is kept; at coarser levels the
    segment starts at the truncated timestamp, so relative sample spacing
    survives but the absolute clock does not; at ``NotShare`` it starts
    at epoch zero.  A uniform segment is built in one construction; a
    non-uniform one also has its embedded Time column shifted so raw
    stamps cannot leak.
    """
    anchor: Optional[int] = None
    if time_level != "milliseconds":
        anchor = 0 if timestamp is None else timestamp
    if segment.is_uniform:
        return segment.released_piece(piece, channels, anchor)
    out = segment.slice_time(piece)
    if out is not None:
        out = out.select_channels(channels)
    if out is None:
        return None
    if anchor is None:
        return out.bare()
    values = out.values.copy()
    values[:, out.channels.index(TIME_CHANNEL)] += anchor - out.start_ms
    return out.bare(start_ms=anchor, values=values)


class RuleEngine:
    """Evaluates one contributor's rules against outgoing segments.

    The engine is a thin owner of one
    :class:`~repro.rules.compiler.CompiledRuleSet`: the artifact passed
    as ``compiled=`` (how the service's epoch-keyed
    :class:`~repro.rules.compiler.CompiledRuleCache` and the conformance
    mutants inject one — ``rules``/``places``/``dependencies``/
    ``enforce_closure`` are then already baked into it), or one compiled
    here from the constructor arguments.  Membership is a query-time
    input and is never baked into the artifact.

    Determinism contract: for fixed inputs — rules, places, the
    membership function's answers, the dependency graph, and the segments
    themselves — evaluation is a pure function producing byte-identical
    :meth:`ReleasedSegment.to_json` output.  The release cache
    (:mod:`repro.datastore.cache`) leans on exactly this: its key folds
    in every one of those inputs (rules and places via the store-wide
    rules epoch, which a places assignment moves too, membership
    directly, segments via the contributor's data epoch), so replaying
    a cached decision is indistinguishable from re-running the engine.
    Anything that would make evaluation nondeterministic (wall-clock
    reads, unordered iteration over rule sets) must not be introduced
    here without revisiting the cache key.
    """

    def __init__(
        self,
        rules: Iterable[Rule] = (),
        places: Optional[Mapping[str, LabeledPlace]] = None,
        *,
        membership: Optional[Callable[[str], FrozenSet[str]]] = None,
        dependencies: Optional[DependencyGraph] = None,
        enforce_closure: bool = True,
        compiled=None,
        obs=None,
    ):
        self.membership = membership or _self_membership
        # Observability (repro.obs.Observability): without a hub the
        # engine meters into the shared disabled one — an inert counter
        # and a no-op span per evaluate() call.
        self.obs = obs or NOOP_OBS
        self._c_evals = self.obs.metrics.counter("rule_evaluations_total")
        if compiled is None:
            # Deferred: the compiler module imports this one.
            from repro.rules.compiler import CompiledRuleSet

            compiled = CompiledRuleSet(
                rules,
                places,
                dependencies=dependencies,
                enforce_closure=enforce_closure,
                obs=self.obs,
            )
        self.compiled = compiled

    def evaluate(self, consumer: str, segments: Iterable[WaveSegment]) -> list:
        """Evaluate many segments; returns the released pieces in order."""
        principals = self.membership(consumer)
        with self.obs.tracer.start_span("rules.evaluate", consumer=consumer) as span:
            segments = list(segments)
            out = self.compiled.evaluate_batch(principals, segments)
            self._c_evals.inc(len(segments))
            span.set_attributes(segments_in=len(segments), pieces_out=len(out))
        return out

    def evaluate_segment(self, consumer: str, segment: WaveSegment) -> list:
        """Evaluate one segment for one consumer; returns released pieces."""
        self._c_evals.inc()
        return self.compiled.evaluate_segment(self.membership(consumer), segment)
