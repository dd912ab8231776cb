"""Unit tests for the release cache, data epochs, content fingerprints,
and the per-contributor index behind ``segments_of``."""

import numpy as np
import pytest

from repro.datastore.cache import (
    ENTRY_OVERHEAD_BYTES,
    CacheEntry,
    ReleaseCache,
    ReleaseSummary,
    query_shape,
)
from repro.datastore.optimizer import MergePolicy
from repro.datastore.query import DataQuery
from repro.datastore.segment_store import SegmentStore, segment_content_hash
from repro.net.transport import Network
from repro.server.datastore_service import DataStoreService
from repro.storage.durability import write_snapshot
from repro.storage.recovery import recover_service
from repro.util.timeutil import Interval

from tests.conftest import make_segment


def entry(nbytes=100):
    return CacheEntry(
        payload={}, payload_bytes=0, summary=ReleaseSummary(), scanned=0, nbytes=nbytes
    )


class TestSegmentContentHash:
    def test_stable_for_equal_content(self):
        a = make_segment(n=8)
        b = make_segment(n=8)
        assert segment_content_hash(a) == segment_content_hash(b)

    def test_moves_when_values_change(self):
        a = make_segment(n=8)
        values = a.values.copy()
        values[3, 0] += 1.0
        b = make_segment(n=8, values=values)
        assert segment_content_hash(a) != segment_content_hash(b)

    def test_moves_when_context_or_location_change(self):
        a = make_segment(n=8)
        b = make_segment(n=8, context={"Activity": "Run"})
        c = make_segment(n=8, location=None)
        assert len({segment_content_hash(s) for s in (a, b, c)}) == 3

    def test_distinguishes_segments_with_colliding_ids(self):
        # segment_id derives from (contributor, channels, start, count) —
        # same shape, different values collide on id but not on content.
        a = make_segment(n=8)
        values = a.values * 2.0
        b = make_segment(n=8, values=values)
        assert a.segment_id == b.segment_id
        assert segment_content_hash(a) != segment_content_hash(b)


class TestQueryShape:
    def test_equal_queries_share_a_shape(self):
        q1 = DataQuery(channels=("ECG",), time_range=Interval(0, 1000))
        q2 = DataQuery(channels=("ECG",), time_range=Interval(0, 1000))
        assert query_shape(q1) == query_shape(q2)

    def test_limit_is_part_of_the_shape(self):
        q1 = DataQuery(channels=("ECG",))
        q2 = DataQuery(channels=("ECG",), limit_segments=1)
        assert query_shape(q1) != query_shape(q2)


class TestReleaseCacheLru:
    def test_hit_and_miss(self):
        cache = ReleaseCache(capacity=4, max_bytes=10_000)
        assert cache.get(("k",)) is None
        cache.put(("k",), entry())
        assert cache.get(("k",)) is not None

    def test_capacity_evicts_least_recently_used(self):
        cache = ReleaseCache(capacity=2, max_bytes=10_000)
        cache.put(("a",), entry())
        cache.put(("b",), entry())
        cache.get(("a",))  # refresh a; b is now LRU
        cache.put(("c",), entry())
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) is not None and cache.get(("c",)) is not None

    def test_byte_budget_evicts(self):
        cache = ReleaseCache(capacity=100, max_bytes=250)
        cache.put(("a",), entry(100))
        cache.put(("b",), entry(100))
        cache.put(("c",), entry(100))  # 300 bytes > 250: a evicts
        assert cache.get(("a",)) is None
        assert cache.resident_bytes == 200

    def test_oversized_entry_is_not_cached(self):
        cache = ReleaseCache(capacity=4, max_bytes=100)
        cache.put(("big",), entry(500))
        assert len(cache) == 0 and cache.resident_bytes == 0

    def test_replacing_a_key_reclaims_its_bytes(self):
        cache = ReleaseCache(capacity=4, max_bytes=1_000)
        cache.put(("k",), entry(400))
        cache.put(("k",), entry(100))
        assert cache.resident_bytes == 100 and len(cache) == 1

    def test_zero_capacity_disables_insertion(self):
        cache = ReleaseCache(capacity=0, max_bytes=1_000)
        cache.put(("k",), entry())
        assert cache.get(("k",)) is None and len(cache) == 0

    def test_entry_measures_its_payload_and_release_once(self):
        """Built once from the engine's pieces, the entry keeps the frame a
        hit serves, its size and its totals — never the pieces or the
        segments they were cut from — and charges the frame's bytes."""
        from dataclasses import fields

        from repro.net import wire
        from repro.rules.engine import ReleasedSegment, decode_release

        seg = make_segment(n=8)
        released = (
            ReleasedSegment("alice", seg.interval, segment=seg.bare(),
                            context_labels={"Stress": "Stressed"}),
            ReleasedSegment("alice", Interval(0, 1), withheld={"ECG": "closure"}),
        )
        e = CacheEntry.of(released, 1)
        assert set(vars(e)) == {f.name for f in fields(CacheEntry)} == {
            "payload", "payload_bytes", "summary", "scanned", "nbytes"
        }
        assert [p.to_json() for p in decode_release(e.payload)] == [
            r.to_json() for r in released
        ]
        assert e.payload_bytes == len(wire.encode(e.payload))
        assert e.summary == ReleaseSummary(
            pieces=2, samples=8, labels=("Stress",), withheld={"ECG": "closure"},
            released_bytes=seg.storage_bytes() + 64,
        )
        assert e.scanned == 1
        assert e.nbytes == ENTRY_OVERHEAD_BYTES + e.payload_bytes


class TestCacheMetrics:
    def test_counters_and_gauges(self):
        obs = Network().obs
        cache = ReleaseCache(capacity=2, max_bytes=10_000, obs=obs, store="s1")
        m = obs.metrics
        cache.get(("miss",))
        cache.put(("a",), entry())
        cache.get(("a",))
        cache.put(("b",), entry())
        cache.put(("c",), entry())  # evicts a
        assert m.counter_value("cache_misses_total", store="s1") == 1
        assert m.counter_value("cache_hits_total", store="s1") == 1
        assert m.counter_value("cache_evictions_total", store="s1") == 1
        assert m.gauge("cache_entries", store="s1").value == 2
        assert m.gauge("cache_bytes", store="s1").value == cache.resident_bytes

    def test_gauge_rebinds_to_a_new_cache_instance(self):
        # A restarted service must not leave the gauge reading the dead
        # cache (registry gauges are get-or-create).
        obs = Network().obs
        old = ReleaseCache(capacity=4, max_bytes=10_000, obs=obs, store="s2")
        old.put(("a",), entry())
        fresh = ReleaseCache(capacity=4, max_bytes=10_000, obs=obs, store="s2")
        assert obs.metrics.gauge("cache_entries", store="s2").value == 0
        fresh.put(("a",), entry())
        fresh.put(("b",), entry())
        assert obs.metrics.gauge("cache_entries", store="s2").value == 2


class TestContentFingerprint:
    def test_empty_contributor_is_zero(self):
        store = SegmentStore()
        assert store.content_fingerprint("nobody") == 0

    def test_moves_on_persist_and_reverts_on_delete(self):
        store = SegmentStore()
        fp0 = store.content_fingerprint("alice")
        store.add_segment(make_segment(n=8))
        store.flush()
        fp1 = store.content_fingerprint("alice")
        assert fp1 != fp0
        store.delete("alice", DataQuery())
        assert store.content_fingerprint("alice") == fp0

    def test_order_independent(self):
        a = make_segment(n=8)
        b = make_segment(n=8, start_ms=a.end_ms + 60_000)
        s1, s2 = SegmentStore(), SegmentStore()
        for seg in (a, b):
            s1.add_segment(seg)
        for seg in (b, a):
            s2.add_segment(seg)
        s1.flush(), s2.flush()
        assert s1.content_fingerprint("alice") == s2.content_fingerprint("alice")

    def test_per_contributor_isolation(self):
        store = SegmentStore()
        store.add_segment(make_segment(n=8))
        store.flush()
        fp_alice = store.content_fingerprint("alice")
        store.add_segment(make_segment(contributor="carol", n=8))
        store.flush()
        assert store.content_fingerprint("alice") == fp_alice
        assert store.content_fingerprint("carol") != 0

    def test_compaction_moves_the_fingerprint(self):
        # Install two adjacent segments directly (bypassing the ingest
        # optimizer) so compact() has something to merge.
        store = SegmentStore()
        base = make_segment(n=8)
        store.restore_segment(base)
        store.restore_segment(make_segment(n=8, start_ms=base.end_ms))
        fp_before = store.content_fingerprint("alice")
        assert store.compact("alice") > 0
        assert store.content_fingerprint("alice") != fp_before

    def test_load_rebuilds_the_fingerprint(self, tmp_path):
        service = DataStoreService("fp-store", Network(), directory=str(tmp_path))
        service.store.add_segment(make_segment(n=8))
        service.store.flush()
        fp = service.store.content_fingerprint("alice")
        write_snapshot(service)
        fresh = DataStoreService("fp-store", Network(), directory=str(tmp_path))
        recover_service(fresh)
        assert fresh.store.content_fingerprint("alice") == fp

    def test_restore_segment_is_idempotent_for_the_fingerprint(self):
        store = SegmentStore()
        seg = make_segment(n=8)
        store.add_segment(seg)
        store.flush()
        fp = store.content_fingerprint("alice")
        store.restore_segment(seg)  # WAL replay re-installs the same record
        assert store.content_fingerprint("alice") == fp


class TestDataEpoch:
    """The release cache's key for stored data: a per-contributor counter
    that every change to the contributor's table moves and nothing rewinds."""

    def _step(self, store, change):
        """Run one change to alice's table; alice's epoch must rise and
        carol's stay."""
        alice, carol = store.data_epoch("alice"), store.data_epoch("carol")
        change()
        assert store.data_epoch("alice") > alice
        assert store.data_epoch("carol") == carol

    def test_unknown_contributor_is_zero(self):
        assert SegmentStore().data_epoch("nobody") == 0

    def test_every_table_change_moves_it_and_only_for_its_owner(self):
        store = SegmentStore()
        store.restore_segment(make_segment(contributor="carol", n=8))
        first = make_segment(n=8)
        second = make_segment(n=8, start_ms=first.end_ms)
        self._step(store, lambda: (store.add_segment(first), store.flush()))
        self._step(store, lambda: store.restore_segment(first))  # identical record
        self._step(store, lambda: store.restore_segment(second))
        self._step(store, lambda: store.compact("alice"))
        (merged,) = store.segments_of("alice")  # the two merged into one
        self._step(store, lambda: store.remove_segment(merged.segment_id))
        self._step(store, lambda: store.restore_segment(merged))
        self._step(store, lambda: store.delete("alice", DataQuery()))
        self._step(store, lambda: store.restore_segment(merged))  # re-upload

    def test_reads_and_no_ops_leave_it(self):
        store = SegmentStore()
        store.add_segment(make_segment(n=8))
        store.flush()
        epoch = store.data_epoch("alice")
        store.query("alice", DataQuery())
        store.segments_of("alice")
        store.content_fingerprint("alice")
        assert store.compact("alice") == 0  # one segment: nothing to merge
        assert store.remove_segment("absent") is False
        assert store.delete("alice", DataQuery(time_range=Interval(0, 1))) == 0
        store.add_segment(make_segment(n=8))  # a re-sent upload, deduped
        assert store.data_epoch("alice") == epoch

    def test_a_resync_moves_it_for_every_contributor_it_installs(self, tmp_path):
        from tests.storage.test_records import self_resync

        # Durable: a replica's position is its journal.
        service = DataStoreService("epoch-store", Network(), directory=str(tmp_path), durable=True)
        for name in ("alice", "carol"):
            service.register_contributor(name)
            service.store.add_segment(make_segment(contributor=name, n=8))
        service.store.flush()
        before = {name: service.store.data_epoch(name) for name in ("alice", "carol")}
        service.demote()
        self_resync(service)  # records.replace with the state it already holds
        for name, epoch in before.items():
            assert service.store.data_epoch(name) > epoch

    def test_it_never_goes_back(self):
        """A revert to content the store held before is a new epoch, not the
        old one: the one case where the content fingerprint would repeat."""
        store = SegmentStore()
        seen = [store.data_epoch("alice")]
        for _ in range(3):
            store.restore_segment(make_segment(n=8))
            seen.append(store.data_epoch("alice"))
            store.delete("alice", DataQuery())
            seen.append(store.data_epoch("alice"))
        assert seen == sorted(set(seen))


class TestSegmentsOfIndex:
    """Regression: segments_of used to scan the whole table per call."""

    def _store_with_two_contributors(self, obs=None):
        store = SegmentStore(
            "idx-store", merge_policy=MergePolicy(enabled=False), obs=obs
        )
        base = make_segment(n=4)
        for i in range(3):
            store.add_segment(
                make_segment(n=4, start_ms=base.start_ms + i * 3_600_000)
            )
        for i in range(17):
            store.add_segment(
                make_segment(
                    contributor="carol", n=4, start_ms=base.start_ms + i * 3_600_000
                )
            )
        store.flush()
        return store

    def test_results_sorted_and_complete(self):
        store = self._store_with_two_contributors()
        alice = store.segments_of("alice")
        assert len(alice) == 3
        assert all(s.contributor == "alice" for s in alice)
        assert [s.start_ms for s in alice] == sorted(s.start_ms for s in alice)
        assert store.segments_of("nobody") == []

    def test_scan_counter_counts_only_own_segments(self):
        """A query counts its candidates, the named contributor's alone; a
        read of her whole range (a dump's, a checkpoint's) is no scan."""
        obs = Network().obs
        store = self._store_with_two_contributors(obs=obs)
        m = obs.metrics
        before = m.counter_value("store_segments_scanned_total", store="idx-store")
        store.segments_of("alice")
        assert m.counter_value("store_segments_scanned_total", store="idx-store") == before
        store.query("alice", DataQuery())
        after = m.counter_value("store_segments_scanned_total", store="idx-store")
        # 20 segments stored in total; only alice's 3 are touched.
        assert after - before == 3

    def test_delete_removes_from_the_index(self):
        store = self._store_with_two_contributors()
        store.delete("carol", DataQuery())
        assert store.segments_of("carol") == []
        assert len(store.segments_of("alice")) == 3
