"""Wave-segment optimization: merging small segments into large ones.

Section 5.1: "The number of wave segments directly affects query
performance because it is the number of records stored in a database. ...
remote data stores perform a wave segment optimization by merging them as
much as possible.  If timestamps of two wave segments are consecutive, they
can be merged as long as they have the same location coordinates and data
channels."

Two modes are provided:

* **ingest-time merging** — :meth:`SegmentOptimizer.add` (a segment) and
  :meth:`SegmentOptimizer.add_cut` (a packet's samples, which get no
  segment of their own) keep one open run per (channels, location,
  interval, context) stream and extend it while cuts keep arriving
  seamlessly, closing it when a gap appears or it reaches
  ``MergePolicy.max_samples``: a run becomes one ``WaveSegment`` when it
  closes, however many packets it took;
* **compaction** — :meth:`SegmentOptimizer.compact` merges an existing
  segment list in one pass, used when policy changes after data is stored.

``MergePolicy.max_samples`` bounds segment size so time-sliced reads do not
have to decode unboundedly large blobs; the C1 benchmark sweeps it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.datastore.wavesegment import WaveSegment
from repro.exceptions import ValidationError


@dataclass(frozen=True)
class MergePolicy:
    """Controls how aggressively segments are merged.

    Attributes:
        max_samples: flush a buffered segment once it holds this many
            samples.  The paper wants segments of "hundreds or thousands"
            of samples; 4096 is the default ceiling.
        enabled: when False, every incoming segment is passed through
            unmerged (the per-packet baseline of benchmark C1).
    """

    max_samples: int = 4096
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.max_samples <= 0:
            raise ValidationError(f"max_samples must be positive: {self.max_samples}")


class _OpenRun:
    """A stream's growing tail: where it starts and the value arrays of
    the cuts that followed each other seamlessly — the one merge
    implementation.  Runs are kept per stream key, and equal keys already
    mean equal contributor, channels, interval, location and context, so
    all that is left of ``WaveSegment.can_merge`` is adjacency in time.

    ``first`` is what opened the run: an offered :class:`WaveSegment`, or
    the id of a packet's cut (its samples as one ``(n, 1)`` column view).
    The run's one :class:`WaveSegment` is built when it closes."""

    __slots__ = ("key", "start_ms", "parts", "n_samples", "first", "context")

    def __init__(self, key: tuple, start_ms: int, values, first, context: dict):
        self.key, self.start_ms, self.first, self.context = key, start_ms, first, context
        self.parts, self.n_samples = [values], len(values)

    def take(self, start_ms: int, values) -> bool:
        """Append a cut's ``values`` if it starts where the run ends."""
        if self.start_ms + self.n_samples * self.key[2] != start_ms:
            return False
        self.parts.append(values)
        self.n_samples += len(values)
        return True

    def close(self) -> WaveSegment:
        """The run as one checked ``WaveSegment``, its samples its own (one
        concatenate, however many cuts it took), its id the one packet's
        when it took one; a run of one offered segment is that segment."""
        first, parts = self.first, self.parts
        if len(parts) == 1 and isinstance(first, WaveSegment):
            return first
        contributor, channels, interval_ms, location, _ = self.key
        return WaveSegment(
            contributor,
            channels,
            self.start_ms,
            interval_ms,
            np.concatenate(parts),
            location,
            dict(self.context),
            first if len(parts) == 1 else "",
        )


class SegmentOptimizer:
    """Stateful ingest-time merger.

    ``add`` (a segment) and ``add_cut`` (a packet's samples) return the
    segments that became *final* as a result of this addition (possibly
    none); ``flush`` drains whatever is still open.  Callers persist only
    final segments, so a crash can lose at most one open run per stream —
    matching the durability of the paper's packet-batching upload path.
    """

    def __init__(self, policy: Optional[MergePolicy] = None):
        self.policy = policy or MergePolicy()
        # stream key -> open run
        self._buffers: dict[tuple, _OpenRun] = {}
        self.merged_count = 0  # merges performed, for instrumentation

    @staticmethod
    def stream_key(contributor: str, channels: tuple, interval_ms, location, context) -> tuple:
        """What two cuts must share to merge, whatever their times: one run
        is kept per key."""
        return (contributor, channels, interval_ms, location, tuple(sorted(context.items())))

    @staticmethod
    def _stream_key(segment: WaveSegment) -> tuple:
        return SegmentOptimizer.stream_key(
            segment.contributor,
            segment.channels,
            segment.interval_ms,
            segment.location,
            segment.context,
        )

    def add(self, segment: WaveSegment) -> list:
        """Offer one segment; returns segments finalized by this call."""
        if not segment.is_uniform:
            return [segment]  # never merged: passes through
        key = self._stream_key(segment)
        return self._offer(key, segment.start_ms, segment.values, segment, segment.context)

    def add_cut(self, key: tuple, start_ms: int, column, segment_id: str, context: dict) -> list:
        """Offer one packet's samples without a segment of their own: its
        stream's ``key`` (:meth:`stream_key`), its ``(n, 1)`` ``column``
        of checked samples, the ``segment_id`` a segment of that packet
        alone would have, and its labels; returns segments finalized by
        this call.  A run this cut opens and closes alone is stored under
        ``segment_id``."""
        return self._offer(key, start_ms, column, segment_id, context)

    def _offer(self, key: tuple, start_ms: int, values, first, context: dict) -> list:
        if not self.policy.enabled:
            return [_OpenRun(key, start_ms, values, first, context).close()]
        run = self._buffers.get(key)
        finalized: list[WaveSegment] = []
        if run is not None and run.take(start_ms, values):
            self.merged_count += 1
        else:
            if run is not None:
                finalized.append(run.close())  # gap: the old run is final
            run = self._buffers[key] = _OpenRun(key, start_ms, values, first, context)
        if run.n_samples >= self.policy.max_samples:
            finalized.append(self._buffers.pop(key).close())
        return finalized

    def flush(self) -> list:
        """Finalize and return all open runs."""
        out = [run.close() for run in self._buffers.values()]
        self._buffers.clear()
        return out

    def compact(self, segments: Iterable[WaveSegment]) -> list:
        """Merge an already-materialized segment list in one pass.

        Segments are grouped per stream and sorted by start time; adjacent
        mergeable segments coalesce up to ``max_samples``.
        """
        groups: dict[tuple, list] = {}
        passthrough: list[WaveSegment] = []
        for segment in segments:
            if not self.policy.enabled or not segment.is_uniform:
                passthrough.append(segment)
            else:
                groups.setdefault(self._stream_key(segment), []).append(segment)
        out = passthrough
        for key, group in groups.items():
            group.sort(key=lambda s: s.start_ms)
            run = _OpenRun(key, group[0].start_ms, group[0].values, group[0], group[0].context)
            for nxt in group[1:]:
                can_grow = run.n_samples + nxt.n_samples <= self.policy.max_samples
                if can_grow and run.take(nxt.start_ms, nxt.values):
                    self.merged_count += 1
                else:
                    out.append(run.close())
                    run = _OpenRun(key, nxt.start_ms, nxt.values, nxt, nxt.context)
            out.append(run.close())
        out.sort(key=lambda s: (s.start_ms, s.channels))
        return out
