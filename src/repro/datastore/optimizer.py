"""Wave-segment optimization: merging small segments into large ones.

Section 5.1: "The number of wave segments directly affects query
performance because it is the number of records stored in a database. ...
remote data stores perform a wave segment optimization by merging them as
much as possible.  If timestamps of two wave segments are consecutive, they
can be merged as long as they have the same location coordinates and data
channels."

Two modes are provided:

* **ingest-time merging** — :meth:`SegmentOptimizer.add` keeps one open
  run per (channels, location, interval, context) stream and extends it
  while packets keep arriving seamlessly, closing it when a gap appears
  or it reaches ``MergePolicy.max_samples``;
* **compaction** — :meth:`SegmentOptimizer.compact` merges an existing
  segment list in one pass, used when policy changes after data is stored.

``MergePolicy.max_samples`` bounds segment size so time-sliced reads do not
have to decode unboundedly large blobs; the C1 benchmark sweeps it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
    """A stream's growing tail: its first segment plus the value arrays of
    the segments that followed it seamlessly — the one merge implementation.
    Runs are kept per stream key, and equal keys already mean equal
    contributor, channels, interval, location and context, so all that is
    left of ``WaveSegment.can_merge`` is adjacency in time."""

    __slots__ = ("first", "parts", "n_samples")

    def __init__(self, first: WaveSegment):
        self.first, self.parts, self.n_samples = first, [first.values], first.n_samples

    def take(self, segment: WaveSegment) -> bool:
        """Append ``segment`` if it starts where the run ends."""
        if self.first.start_ms + self.n_samples * self.first.interval_ms != segment.start_ms:
            return False
        self.parts.append(segment.values)
        self.n_samples += segment.n_samples
        return True

    def close(self) -> WaveSegment:
        """The run as a segment: one concatenate and one ``WaveSegment``
        however many segments it took (a run of one is that segment)."""
        if len(self.parts) == 1:
            return self.first
        return replace(self.first, values=np.concatenate(self.parts), segment_id="")


class SegmentOptimizer:
    """Stateful ingest-time merger.

    ``add`` returns the segments that became *final* as a result of this
    addition (possibly none); ``flush`` drains whatever is still open.
    Callers persist only final segments, so a crash can lose at most one
    open run per stream — matching the durability of the paper's
    packet-batching upload path.
    """

    def __init__(self, policy: Optional[MergePolicy] = None):
        self.policy = policy or MergePolicy()
        # stream key -> open run
        self._buffers: dict[tuple, _OpenRun] = {}
        self.merged_count = 0  # merges performed, for instrumentation

    @staticmethod
    def _stream_key(segment: WaveSegment) -> tuple:
        return (
            segment.contributor,
            segment.channels,
            segment.interval_ms,
            segment.location,
            tuple(sorted(segment.context.items())),
        )

    def add(self, segment: WaveSegment) -> list:
        """Offer one segment; returns segments finalized by this call."""
        if not self.policy.enabled or not segment.is_uniform:
            # Merging off, or non-uniform (never merged): pass through.
            return [segment]
        key = self._stream_key(segment)
        run = self._buffers.get(key)
        finalized: list[WaveSegment] = []
        if run is not None and run.take(segment):
            self.merged_count += 1
        else:
            if run is not None:
                finalized.append(run.close())  # gap: the old run is final
            run = self._buffers[key] = _OpenRun(segment)
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
        for group in groups.values():
            group.sort(key=lambda s: s.start_ms)
            run = _OpenRun(group[0])
            for nxt in group[1:]:
                can_grow = run.n_samples + nxt.n_samples <= self.policy.max_samples
                if can_grow and run.take(nxt):
                    self.merged_count += 1
                else:
                    out.append(run.close())
                    run = _OpenRun(nxt)
            out.append(run.close())
        out.sort(key=lambda s: (s.start_ms, s.channels))
        return out
