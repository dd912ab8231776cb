"""Versioned release cache for the consumer-query hot path.

Every ``/api/query`` runs the full rule pipeline — candidate matching,
time-piecing, abstraction, dependency closure — over every candidate
segment, even though privacy rules change orders of magnitude less often
than queries arrive.  This module caches the *outcome* of that pipeline
as the bytes a repeat of the query is served: the wire frame one consumer
receives for one query against one contributor's data under one rule
state, and the totals its bookkeeping needs.  ``/api/aggregate`` reads the
engine's pieces, which an entry does not keep, so it is never cached.

A stale grant here is a privacy leak, so the cache is **versioned, not
timed**: entries can never be served stale because everything a release
depends on is folded into the key —

* ``consumer`` and the consumer's group membership (rules match on
  groups, and the broker can change membership without touching rules);
* the store-wide :attr:`~repro.rules.rulestore.RuleStore.rules_version`
  epoch, which moves on *every* rule mutation anywhere in the store, on
  every restore, and on every labeled-places assignment (places feed
  rule geography);
* the contributor's **data epoch**
  (:meth:`~repro.datastore.segment_store.SegmentStore.data_epoch`), a
  counter that moves wherever one of the contributor's segments enters
  or leaves the table — ingest, delete, compaction, an installed or
  removed record — and never for another contributor's;
* the contributor's fail-closed flag (recovery can deny a contributor
  without a rule mutation);
* the canonical **query shape** (channels, time range, region, limit).

Every event that changes release semantics moves a key component, so
correctness never depends on an entry "aging out" or on an invalidation
call arriving, and nothing drops entries wholesale: an entry made under
an old state is unreachable and ages out of the LRU.

An entry is its frame (:class:`CacheEntry`): that frame's encoded length
and a :class:`ReleaseSummary` of the pieces ride beside it, so the
per-request bookkeeping a hit still owes (traffic accounting, the audit
record, cost attribution) is O(1) rather than a re-encode and two walks
over the released pieces.

The cache is a bounded LRU with byte-size accounting; hits, misses,
evictions, resident bytes, and entry count are exported through the
shared metrics registry (``cache_*``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.datastore.query import DataQuery
from repro.net import wire
from repro.obs import NOOP_OBS
from repro.rules.engine import encode_release
from repro.util import jsonutil


def query_shape(query: DataQuery) -> str:
    """Canonical string identity of a query (its JSON, canonically dumped).

    Two queries with the same shape select the same data: channels, time
    range, region, and segment limit are all part of
    :meth:`DataQuery.to_json`, which rejects unknown keys on the way in.
    """
    return jsonutil.canonical_dumps(query.to_json())


@dataclass(frozen=True)
class ReleaseSummary:
    """What one release let out, counted once instead of once per request.

    The audit trail and cost attribution both need these totals for every
    served query; a cache hit reads them here rather than re-walking the
    released pieces.
    """

    pieces: int = 0
    samples: int = 0
    labels: tuple = ()  # sorted context-category names that flowed
    withheld: dict = field(default_factory=dict)  # channel -> reason, across pieces
    #: approximate size of the released pieces (cost attribution).
    released_bytes: int = 0

    @classmethod
    def of(cls, released: Iterable) -> "ReleaseSummary":
        """Summarize an iterable of :class:`~repro.rules.engine.ReleasedSegment`."""
        pieces = samples = released_bytes = 0
        labels: set = set()
        withheld: dict = {}
        for item in released:
            pieces += 1
            samples += item.n_samples
            labels.update(item.context_labels)
            withheld.update(item.withheld)
            segment = item.segment
            released_bytes += segment.storage_bytes() if segment is not None else 64
        return cls(pieces, samples, tuple(sorted(labels)), withheld, released_bytes)


#: bytes an entry costs beyond its frame: key, summary and bookkeeping.
ENTRY_OVERHEAD_BYTES = 512


@dataclass(frozen=True)
class CacheEntry:
    """One cached release: the frame a hit serves and the totals it books.

    Built once, at the miss that had to encode and size the frame to serve
    it anyway (:meth:`of`).  It keeps neither the engine's pieces nor the
    segments the store scanned: a hit needs neither, and the scan's cut
    segments would outweigh the frame itself.
    """

    #: the release's wire frame (:func:`encode_release`), served on every hit.
    payload: dict
    #: ``wire.size(payload)``, so the transport counts a hit without encoding it.
    payload_bytes: int
    #: totals over the released pieces for the audit record and cost attribution.
    summary: ReleaseSummary
    #: segments-scanned count of the original store query (audited on hits).
    scanned: int
    #: resident size charged against the byte budget.
    nbytes: int

    @classmethod
    def of(cls, released: tuple, scanned: int) -> "CacheEntry":
        """The entry for the engine's ``released`` pieces: one encode and
        one canonical pass over the frame, which never turns the blob into
        text."""
        payload = encode_release(released)
        size = wire.size(payload)
        return cls(payload, size, ReleaseSummary.of(released), scanned, ENTRY_OVERHEAD_BYTES + size)


class ReleaseCache:
    """Bounded LRU of released query results, keyed by full decision state.

    ``capacity`` bounds the entry count and ``max_bytes`` the resident
    byte estimate; whichever is exceeded first evicts from the LRU tail.
    A ``capacity`` (or ``max_bytes``) of zero disables insertion; a
    service configured so builds no cache at all (``release_cache is
    None``).
    """

    def __init__(
        self,
        capacity: int = 1024,
        max_bytes: int = 32 << 20,
        *,
        obs=None,
        store: str = "store",
    ):
        self.capacity = int(capacity)
        self.max_bytes = int(max_bytes)
        self._entries: "OrderedDict[tuple, CacheEntry]" = OrderedDict()
        self._bytes = 0
        self.obs = obs or NOOP_OBS
        m = self.obs.metrics
        self._c_hits = m.counter("cache_hits_total", store=store)
        self._c_misses = m.counter("cache_misses_total", store=store)
        self._c_evictions = m.counter("cache_evictions_total", store=store)
        m.gauge("cache_bytes", callback=lambda: self._bytes, store=store)
        m.gauge("cache_entries", callback=lambda: len(self._entries), store=store)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def resident_bytes(self) -> int:
        """Current byte-size estimate of all cached entries."""
        return self._bytes

    # ------------------------------------------------------------------
    # Lookup / insert
    # ------------------------------------------------------------------

    def contains(self, key: tuple) -> bool:
        """Non-mutating membership probe: no LRU touch, no hit/miss count.

        Used by admission control's brownout ladder to classify an
        arriving query as cached vs cold *before* admitting it — the
        probe must not distort the cache metrics the C11 benchmark reads.
        """
        return key in self._entries

    def get(self, key: tuple) -> Optional[CacheEntry]:
        """Return the cached entry for ``key`` (marking it recently used)."""
        entry = self._entries.get(key)
        if entry is None:
            self._c_misses.inc()
            return None
        self._entries.move_to_end(key)
        self._c_hits.inc()
        return entry

    def put(self, key: tuple, entry: CacheEntry) -> None:
        """Insert (or refresh) one entry, evicting LRU tails over budget."""
        if self.capacity <= 0 or self.max_bytes <= 0:
            return
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= old.nbytes
        if entry.nbytes > self.max_bytes:
            return  # a single oversized release would evict everything
        self._entries[key] = entry
        self._bytes += entry.nbytes
        while self._entries and (
            len(self._entries) > self.capacity or self._bytes > self.max_bytes
        ):
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= evicted.nbytes
            self._c_evictions.inc()
