"""The segment storage engine behind a remote data store.

Ties together the embedded table (the segments, by id), the per-channel
interval indexes (query acceleration), and the wave-segment optimizer
(ingest-time merging); a query's region filters the time-and-channel
candidates with ``Region.contains``.  It holds segments in memory only:
they leave and enter a store as ``segment`` records
(:mod:`repro.storage.records`), on the same path as every other kind of
state.  One :class:`SegmentStore` can hold data for several contributors
— the paper's institutional servers host every participant of a study —
and every query is scoped to a single contributor, because privacy rules
are per-owner.

Each contributor's stored segments carry a **data epoch**, a counter
that moves wherever a segment enters or leaves the table
(:meth:`SegmentStore.data_epoch`); the release cache keys decisions by
it.  :meth:`SegmentStore.content_fingerprint` digests the same segments
by content, on demand, for checks that two stores hold the same data.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace
from typing import Optional

from repro.datastore.codec import DECODE_STATS
from repro.datastore.index import IntervalIndex
from repro.datastore.optimizer import MergePolicy, SegmentOptimizer
from repro.datastore.query import DataQuery, QueryResult
from repro.datastore.wavesegment import WaveSegment
from repro.exceptions import DuplicateKeyError
from repro.obs import NOOP_OBS
from repro.sensors.packets import SensorPacket
from repro.util import jsonutil
from repro.util.idgen import stable_id
from repro.util.timeutil import Interval

#: Default bound on remembered upload ids (retry dedupe).  FIFO eviction:
#: once a store has ingested this many *newer* segments, a retry of a
#: very old upload is no longer recognized as a duplicate.
DEDUPE_WINDOW_IDS = 65536


def segment_content_hash(segment: WaveSegment) -> int:
    """A 128-bit content hash of one stored wave segment.

    Unlike :attr:`WaveSegment.segment_id` (derived from contributor,
    channels, start time, and sample *count* only), this digests the
    actual sample values, location, and context, so two segments that
    would collide on id but differ in content hash differently.  Returned
    as an ``int`` so fingerprints can be XOR-combined cheaply.
    """
    h = hashlib.sha256()
    h.update(segment.contributor.encode("utf-8"))
    h.update("\x1f".join(segment.channels).encode("utf-8"))
    h.update(str(segment.start_ms).encode("ascii"))
    h.update(str(segment.interval_ms).encode("ascii"))
    h.update(segment.values.tobytes())
    if segment.location is not None:
        h.update(repr(segment.location.to_json()).encode("utf-8"))
    if segment.context:
        h.update(jsonutil.canonical_dumps(dict(segment.context)).encode("utf-8"))
    return int.from_bytes(h.digest()[:16], "big")


@dataclass
class StoreStats:
    """Aggregate statistics used by benchmarks and the web UI."""

    n_segments: int = 0
    n_samples: int = 0
    storage_bytes: int = 0
    queries_served: int = 0
    segments_scanned: int = 0


class SegmentStore:
    """Wave-segment storage with time indexes and merging."""

    def __init__(
        self,
        name: str = "store",
        *,
        merge_policy: Optional[MergePolicy] = None,
        dedupe_window: int = DEDUPE_WINDOW_IDS,
        obs=None,
    ):
        self.name = name
        # Observability (repro.obs.Observability); instruments bound once.
        self.obs = obs or NOOP_OBS
        m = self.obs.metrics
        self._c_scanned = m.counter("store_segments_scanned_total", store=name)
        self._c_duplicates = m.counter("store_duplicate_uploads_total", store=name)
        self._h_query = m.histogram("store_query_us", store=name)
        m.gauge("codec_decode_calls", callback=lambda: DECODE_STATS.decode_calls)
        m.gauge("codec_decode_seconds", callback=lambda: DECODE_STATS.decode_seconds)
        # Samples per segment (§5.1) is the ratio of these two.
        m.gauge("store_segments", callback=lambda: self.stats.n_segments, store=name)
        m.gauge("store_samples", callback=lambda: self.stats.n_samples, store=name)
        self._segments: dict[str, WaveSegment] = {}  # segment id -> segment
        self.optimizer = SegmentOptimizer(merge_policy)
        # contributor -> channel -> IntervalIndex of segment ids
        self._time_index: dict[str, dict[str, IntervalIndex]] = {}
        # contributor -> set of segment ids (segments_of used to linear-scan
        # the whole table for this — an institutional store hosting many
        # participants paid O(total segments) per owner page view)
        self._by_contributor: dict[str, set] = {}
        # contributor -> data epoch (see data_epoch)
        self._epochs: dict[str, int] = {}
        self.stats = StoreStats()
        #: Durability hooks, so a write-ahead log can journal mutations:
        #: ``on_persist`` is fired with the list of segments one call stored
        #: (an upload, a flush, a compaction), ``on_unpersist`` with each
        #: segment removed.  Installed records bypass them (no WAL echo of
        #: the WAL).
        self.on_persist: list = []
        self.on_unpersist: list = []
        # Recently offered segment ids, for upload dedupe: a retried POST
        # whose first attempt committed but whose response was lost must
        # not double-ingest (the merged copy in the table can carry a
        # different id, so the table alone cannot answer this).  The
        # guarantee is deliberately best-effort and bounded:
        #
        # * insertion-ordered with FIFO eviction at ``dedupe_window`` ids,
        #   so the memory cost per store is capped — a retry arriving
        #   after that many newer ingests can double-insert;
        # * deletions do NOT remove entries: a stale retry of a segment
        #   the owner has since deleted must not resurrect their data;
        # * across a restart, recovery re-seeds the ids of *finalized*
        #   segments — snapshot rows and WAL replay alike install through
        #   ``restore_segment`` — while never-finalized ids are memory-only,
        #   so their dedupe does not survive the restart.  A finalized id is
        #   a *run's*: packets that merged are recognised when their run
        #   closes to a stored id (``_persist_final``), not one by one.
        self._ingested_ids: dict = {}
        self.dedupe_window = dedupe_window
        self.duplicate_uploads = 0

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def add_packet(self, contributor: str, packet: SensorPacket) -> list:
        """Ingest one firmware packet; returns segments persisted now."""
        return self.add_packets(contributor, [packet])

    def add_packets(self, contributor: str, packets, *, flush: bool = False) -> list:
        """Ingest one upload's packets (and, with ``flush``, drain every open
        run after them) as one unit; returns the segments persisted, which
        the durability hooks see as one list.

        A packet becomes no segment of its own: the optimizer is handed
        its cut (:meth:`SegmentOptimizer.add_cut`) — the stream key,
        computed once per stream (per channel, interval, location and
        label dict a packet carries), its samples as a column view, and
        the id ``segment_from_packet`` would give it, by which it is
        deduped exactly as ``add_segments`` dedupes — and each stored
        run is built, checked and hashed once, when it closes.
        """
        optimizer, keys, finalized = self.optimizer, {}, []
        for packet in packets:
            location, context = packet.location, packet.context
            stream = (packet.channel_name, packet.interval_ms, id(location), id(context))
            key = keys.get(stream)
            if key is None:
                key = keys[stream] = optimizer.stream_key(
                    contributor, (packet.channel_name,), packet.interval_ms, location, context
                )
            start, column = packet.start_ms, packet.values.reshape(-1, 1)
            segment_id = stable_id(contributor, key[1], start, len(column))
            if self._offered_first(segment_id):
                finalized += optimizer.add_cut(key, start, column, segment_id, context)
        if flush:
            finalized += optimizer.flush()
        return self._persist_final(finalized)

    def add_segment(self, segment: WaveSegment) -> list:
        """Offer one segment; returns segments persisted now."""
        return self.add_segments([segment])

    def add_segments(self, segments, *, flush: bool = False) -> list:
        """Offer segments to the optimizer and persist what finalizes, once.

        Idempotent per segment id: re-offering an id this store has
        already ingested is counted and dropped, so a client retrying an
        upload whose response was lost in transit cannot double-insert.
        Dedupe is best-effort — ids are remembered in a bounded FIFO
        window (``dedupe_window``) and, for never-finalized segments,
        only in memory (see ``_ingested_ids`` for the exact contract).
        """
        finalized = []
        for segment in segments:
            if self._offered_first(segment.segment_id):
                finalized += self.optimizer.add(segment)
        if flush:
            finalized += self.optimizer.flush()
        return self._persist_final(finalized)

    def _offered_first(self, segment_id: str) -> bool:
        """Remember one offered id; False, counted as a duplicate, when
        this store already took it."""
        if segment_id in self._ingested_ids:
            self._count_duplicate()
            return False
        self._note_ingested(segment_id)
        return True

    def _count_duplicate(self) -> None:
        self.duplicate_uploads += 1
        self._c_duplicates.inc()

    def _persist_final(self, finalized: list) -> list:
        """Persist what the optimizer finalized; returns what was stored,
        which ``on_persist`` hooks are handed as one list.

        Each stored segment owns its samples: a run the optimizer built
        was concatenated and does, from one packet's cut as from many; a
        segment offered whole and stored alone (``add_segments``) may
        still be a view pinning the request it was decoded from, so it is
        copied.  A run that closes to an id the table already holds is a
        re-sent upload whose packets merged the way they did the first
        time (the stored id is the run's, not any packet's, so the ingest
        could not know them): counted and dropped like a remembered id,
        not a duplicate-key error that refuses the new packets sharing its
        request.
        """
        stored = []
        for final in finalized:
            if final.segment_id in self._segments:
                self._count_duplicate()
                continue
            if final.values.base is not None:
                final = replace(final, values=final.values.copy())
            self._persist(final)
            stored.append(final)
        self._notify_persisted(stored)
        return stored

    def _notify_persisted(self, stored: list) -> None:
        if stored:
            for hook in self.on_persist:
                hook(stored)

    def _note_ingested(self, segment_id: str) -> None:
        """Remember one offered id, evicting the oldest past the window."""
        self._ingested_ids[segment_id] = None
        while len(self._ingested_ids) > self.dedupe_window:
            del self._ingested_ids[next(iter(self._ingested_ids))]

    def flush(self) -> list:
        """Persist all segments still buffered in the optimizer."""
        return self._persist_final(self.optimizer.flush())

    def _index_segment(self, segment: WaveSegment) -> None:
        """Add one (already-tabled) segment to every in-memory index."""
        per_contrib = self._time_index.setdefault(segment.contributor, {})
        for channel_name in segment.channels:
            per_contrib.setdefault(channel_name, IntervalIndex()).add(
                segment.interval, segment.segment_id
            )
        self._by_contributor.setdefault(segment.contributor, set()).add(
            segment.segment_id
        )
        self._bump_epoch(segment.contributor)
        self.stats.n_segments += 1
        self.stats.n_samples += segment.n_samples
        self.stats.storage_bytes += segment.storage_bytes()

    def _deindex_segment(self, segment: WaveSegment) -> None:
        """Remove one segment from every in-memory index (table untouched)."""
        per_contrib = self._time_index.get(segment.contributor, {})
        for channel_name in segment.channels:
            per_contrib[channel_name].remove(segment.interval, segment.segment_id)
        self._by_contributor.get(segment.contributor, set()).discard(
            segment.segment_id
        )
        self._bump_epoch(segment.contributor)
        self.stats.n_segments -= 1
        self.stats.n_samples -= segment.n_samples
        self.stats.storage_bytes -= segment.storage_bytes()

    def _persist(self, segment: WaveSegment) -> None:
        """Insert one finalized segment into the table and every index
        (its caller fires the ``on_persist`` hooks, once for all it stored)."""
        if segment.segment_id in self._segments:
            raise DuplicateKeyError(f"segments: duplicate primary key {segment.segment_id!r}")
        self._segments[segment.segment_id] = segment
        self._index_segment(segment)

    def _unpersist(self, segment: WaveSegment, *, notify: bool = True) -> None:
        """Remove one stored segment from the table and every index."""
        del self._segments[segment.segment_id]
        self._deindex_segment(segment)
        if notify:
            for hook in self.on_unpersist:
                hook(segment)

    # ------------------------------------------------------------------
    # Record install (``records.apply``; never fires durability hooks)
    # ------------------------------------------------------------------

    def restore_segment(self, segment: WaveSegment) -> None:
        """Install one segment record, idempotently."""
        existing = self._segments.get(segment.segment_id)
        if existing is not None:
            self._unpersist(existing, notify=False)
        self._persist(segment)
        # A restored id counts as ingested: after a restart (or on a
        # replica) the device may re-send segments a snapshot or the
        # journal already delivered, and those must dedupe rather than
        # re-enter the optimizer alongside their persisted copies.
        self._note_ingested(segment.segment_id)

    def remove_segment(self, segment_id: str) -> bool:
        """Replay a journaled deletion; False when already absent."""
        segment = self._segments.get(segment_id)
        if segment is None:
            return False
        self._unpersist(segment, notify=False)
        return True

    def compact(self, contributor: str) -> int:
        """Re-run merge optimization over stored segments; returns delta.

        Useful after ingesting with merging disabled, or after lowering
        ``max_samples``.  Returns the reduction in segment count.
        """
        before = self.segments_of(contributor)
        merged = self.optimizer.compact(before)
        if len(merged) == len(before):
            return 0
        for segment in before:
            self._unpersist(segment)
        for segment in merged:
            self._persist(segment)
        self._notify_persisted(merged)
        return len(before) - len(merged)

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------

    def contributors(self) -> list:
        """Every contributor with at least one indexed channel, sorted."""
        return sorted(self._time_index)

    def segments_of(self, contributor: str) -> list:
        """All stored segments for one contributor, start-time order.

        Served from the per-contributor id index — O(own segments), where
        it used to scan the whole table (every other participant's data on
        an institutional store).
        """
        ids = self._by_contributor.get(contributor, ())
        out = [self._segments[segment_id] for segment_id in ids]
        out.sort(key=lambda s: (s.start_ms, s.channels))
        return out

    def data_epoch(self, contributor: str) -> int:
        """How many times one contributor's stored segments have changed.

        Moves on every segment that enters or leaves the table (ingest,
        delete, compaction, an installed or removed record), never for
        another contributor's, and never goes back: the release cache keys
        decisions by it, so no entry made before a change is reachable
        after it.
        """
        return self._epochs.get(contributor, 0)

    def _bump_epoch(self, contributor: str) -> None:
        self._epochs[contributor] = self._epochs.get(contributor, 0) + 1

    def content_fingerprint(self, contributor: str) -> int:
        """XOR of the content hashes of one contributor's stored segments.

        A verification digest, computed on demand: two stores holding the
        same segments agree on it whatever order they were stored in (a
        recovered store against its replica).  Nothing on the request path
        reads it; cached decisions ride :meth:`data_epoch`.
        """
        fingerprint = 0
        for segment_id in self._by_contributor.get(contributor, ()):
            fingerprint ^= segment_content_hash(self._segments[segment_id])
        return fingerprint

    def query(self, contributor: str, query: DataQuery) -> QueryResult:
        """Execute a query against one contributor's data.

        Resolution order: interval index narrows by time and channel, the
        region (if any) filters those exactly, then segments are projected
        to the requested channels and sliced to the time range.
        """
        started = time.perf_counter()
        with self.obs.tracer.start_span("store.scan", store=self.name) as span:
            wanted_channels = query.expanded_channels()  # validates names
            candidate_ids = self._candidates(contributor, query, wanted_channels)
            result = QueryResult()
            result.scanned_segments = len(candidate_ids)
            self.stats.queries_served += 1
            self.stats.segments_scanned += len(candidate_ids)
            segments = sorted(
                (self._segments[sid] for sid in candidate_ids),
                key=lambda s: (s.start_ms, s.channels),
            )
            for segment in segments:
                clipped = self._clip(segment, query, wanted_channels)
                if clipped is None:
                    continue
                if (
                    query.limit_segments is not None
                    and len(result.segments) >= query.limit_segments
                ):
                    result.truncated = True
                    break
                result.segments.append(clipped)
            span.set_attributes(
                segments_scanned=result.scanned_segments,
                segments_returned=len(result.segments),
            )
        self._h_query.observe((time.perf_counter() - started) * 1e6)
        self._c_scanned.inc(result.scanned_segments)
        return result

    def _candidates(
        self, contributor: str, query: DataQuery, wanted_channels: tuple
    ) -> list:
        per_contrib = self._time_index.get(contributor, {})
        channels = wanted_channels or tuple(per_contrib)
        ids: set = set()
        for channel_name in channels:
            index = per_contrib.get(channel_name)
            if index is not None:
                window = query.time_range or index.span()
                if window is not None:  # None: the index is empty
                    ids.update(index.overlapping(window))
        region = query.region
        if region is not None:
            ids = {
                sid
                for sid in ids
                if (location := self._segments[sid].location) is not None
                and region.contains(location)
            }
        return sorted(ids)

    @staticmethod
    def _clip(
        segment: WaveSegment, query: DataQuery, wanted_channels: tuple
    ) -> Optional[WaveSegment]:
        clipped: Optional[WaveSegment] = segment
        if wanted_channels:
            clipped = clipped.select_channels(wanted_channels)
            if clipped is None:
                return None
        if query.time_range is not None:
            clipped = clipped.slice_time(query.time_range)
        return clipped

    def delete(self, contributor: str, query: DataQuery) -> int:
        """Delete a contributor's segments matching a query; returns count.

        Deletion is whole-segment: a segment is removed when it matches the
        query's channel/region filters and *overlaps* the time range (the
        owner deleting "that afternoon" expects the whole overlapping
        segment gone, not a sliver kept).  Buffered segments are flushed
        first so they cannot resurrect deleted data.
        """
        self.flush()
        wanted_channels = query.expanded_channels()
        candidate_ids = self._candidates(contributor, query, wanted_channels)
        for segment_id in candidate_ids:
            self._unpersist(self._segments[segment_id])
        return len(candidate_ids)
