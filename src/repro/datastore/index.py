"""The time index for wave segments.

A time-range query — "ECG between 9am and 6pm on these days" — is served
by :class:`IntervalIndex`, a sorted-by-start interval list with a
running-maximum-end augmentation (a flattened interval tree; overlap
lookups are O(log n + k) because segment lengths are bounded).  It stores
opaque item ids; the segment store owns the id → segment mapping, and
filters a location query with ``Region.contains`` on each candidate.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, Optional

from repro.exceptions import StorageError
from repro.util.timeutil import Interval


class IntervalIndex:
    """Index of half-open intervals supporting overlap queries.

    Entries are kept sorted by ``(start, end, item_id)``.  A parallel
    prefix-maximum of ends lets :meth:`overlapping` stop scanning early:
    once every remaining candidate starts at/after the query end, and no
    earlier entry can reach into the query (prefix max end <= query start),
    the scan is done.
    """

    def __init__(self) -> None:
        self._entries: list[tuple[int, int, Any]] = []  # (start, end, item_id)
        self._prefix_max_end: list[int] = []

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, interval: Interval, item_id: Any) -> None:
        """Index one item id over a time interval."""
        entry = (interval.start, interval.end, item_id)
        pos = bisect.bisect_left(self._entries, entry)
        self._entries.insert(pos, entry)
        self._rebuild_prefix(from_pos=pos)

    def remove(self, interval: Interval, item_id: Any) -> None:
        """Remove one (interval, item id) pair from the index."""
        entry = (interval.start, interval.end, item_id)
        pos = bisect.bisect_left(self._entries, entry)
        if pos >= len(self._entries) or self._entries[pos] != entry:
            raise StorageError(f"interval index: entry {entry!r} not found")
        del self._entries[pos]
        self._rebuild_prefix(from_pos=pos)

    def _rebuild_prefix(self, from_pos: int = 0) -> None:
        # Rebuild the running max of `end` from from_pos onward.
        del self._prefix_max_end[from_pos:]
        running = self._prefix_max_end[-1] if self._prefix_max_end else -(2**62)
        for start, end, _ in self._entries[from_pos:]:
            running = max(running, end)
            self._prefix_max_end.append(running)

    def overlapping(self, window: Interval) -> Iterator[Any]:
        """Item ids of intervals overlapping ``window``, start order."""
        # Find the first position whose prefix-max end exceeds window.start:
        # everything before it ends at or before the window opens.  Walk on
        # from there by position: a slice would copy the whole tail.
        entries = self._entries
        for pos in range(bisect.bisect_right(self._prefix_max_end, window.start), len(entries)):
            start, end, item_id = entries[pos]
            if start >= window.end:
                break
            if end > window.start:
                yield item_id

    def stabbing(self, ts_ms: int) -> Iterator[Any]:
        """Item ids of intervals containing the instant ``ts_ms``."""
        return self.overlapping(Interval(ts_ms, ts_ms + 1))

    def span(self) -> Optional[Interval]:
        """The overall [min start, max end) covered, or None when empty."""
        if not self._entries:
            return None
        return Interval(self._entries[0][0], self._prefix_max_end[-1])
