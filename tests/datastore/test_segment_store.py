"""Tests for the segment storage engine."""

import pytest

from repro.datastore.optimizer import MergePolicy
from repro.datastore.query import DataQuery
from repro.datastore.segment_store import SegmentStore
from repro.net.transport import Network
from repro.sensors.packets import packetize
from repro.server.datastore_service import DataStoreService
from repro.storage.durability import write_snapshot
from repro.storage.recovery import recover_service
from repro.util.geo import BoundingBox, LatLon
from repro.util.timeutil import Interval

from tests.conftest import MONDAY, UCLA, make_segment

HOME = LatLon(34.03, -118.47)


def ingest_run(store, contributor="alice", channel="ECG", start=MONDAY, n=640, location=UCLA):
    for pkt in packetize(channel, start, 250, list(range(n)), location=location):
        store.add_packet(contributor, pkt)


class TestIngest:
    def test_merging_reduces_segments(self):
        merged = SegmentStore(merge_policy=MergePolicy(max_samples=4096))
        unmerged = SegmentStore(merge_policy=MergePolicy(enabled=False))
        for store in (merged, unmerged):
            ingest_run(store)
            store.flush()
        assert merged.stats.n_segments < unmerged.stats.n_segments
        assert merged.stats.n_samples == unmerged.stats.n_samples == 640

    def test_stats_track_storage(self):
        store = SegmentStore()
        ingest_run(store, n=128)
        store.flush()
        assert store.stats.storage_bytes > 128 * 8

    def test_retry_dedupe_drops_reoffered_ids(self):
        store = SegmentStore()
        segment = make_segment()
        assert store.add_segment(segment) is not None
        assert store.add_segment(segment) == []  # lost-ack retry
        assert store.duplicate_uploads == 1

    def test_dedupe_window_is_bounded_fifo(self):
        # The remembered-id set must not grow without bound; past the
        # window, dedupe of very old retries is (documented) best-effort.
        store = SegmentStore(
            merge_policy=MergePolicy(enabled=False), dedupe_window=3
        )
        segments = [
            make_segment(start_ms=MONDAY + i * 3_600_000) for i in range(5)
        ]
        for segment in segments:
            store.add_segment(segment)
        assert len(store._ingested_ids) == 3  # capped, oldest evicted
        # Recent ids still dedupe; an evicted (ancient) id no longer does.
        assert store.add_segment(segments[-1]) == []
        assert segments[0].segment_id not in store._ingested_ids

    def test_contributors_listed(self):
        store = SegmentStore()
        ingest_run(store, contributor="alice", n=64)
        ingest_run(store, contributor="bob", start=MONDAY + 10**7, n=64)
        store.flush()
        assert store.contributors() == ["alice", "bob"]


class TestQuery:
    @pytest.fixture()
    def store(self):
        store = SegmentStore(merge_policy=MergePolicy(max_samples=256))
        ingest_run(store, channel="ECG", start=MONDAY, n=640, location=UCLA)
        ingest_run(store, channel="Respiration", start=MONDAY, n=320, location=UCLA)
        ingest_run(store, channel="ECG", start=MONDAY + 10**7, n=640, location=HOME)
        store.flush()
        return store

    def test_time_range_clips_samples(self, store):
        window = Interval(MONDAY + 10_000, MONDAY + 20_000)
        result = store.query("alice", DataQuery(channels=("ECG",), time_range=window))
        assert result.n_samples == 40  # 10s at 4 Hz
        for seg in result.segments:
            assert window.contains(seg.start_ms)

    def test_channel_filter(self, store):
        result = store.query("alice", DataQuery(channels=("Respiration",)))
        assert result.channels() == ("Respiration",)
        assert result.n_samples == 320

    def test_region_filter(self, store):
        near_home = BoundingBox(HOME.lat - 0.01, HOME.lon - 0.01, HOME.lat + 0.01, HOME.lon + 0.01)
        result = store.query("alice", DataQuery(channels=("ECG",), region=near_home))
        assert result.n_samples == 640
        for seg in result.segments:
            assert near_home.contains(seg.location)

    def test_unconstrained_returns_everything(self, store):
        result = store.query("alice", DataQuery())
        assert result.n_samples == 640 + 320 + 640

    def test_limit_truncates(self, store):
        result = store.query("alice", DataQuery(limit_segments=2))
        assert result.n_segments == 2
        assert result.truncated

    def test_unknown_contributor_empty(self, store):
        result = store.query("mallory", DataQuery())
        assert result.n_segments == 0

    def test_stats_count_queries(self, store):
        before = store.stats.queries_served
        store.query("alice", DataQuery())
        assert store.stats.queries_served == before + 1


class TestSizeGauges:
    """Samples per segment (§5.1) is readable from telemetry alone."""

    def test_gauges_follow_the_store_through_ingest_delete_and_restart(self):
        from repro.net.transport import Network

        obs = Network().obs
        store = SegmentStore("size-store", obs=obs)

        def gauges():
            m = obs.metrics
            return (
                m.gauge_value("store_segments", store="size-store"),
                m.gauge_value("store_samples", store="size-store"),
            )

        assert gauges() == (0, 0)
        ingest_run(store, n=640)
        store.flush()
        assert gauges() == (store.stats.n_segments, 640)
        assert gauges()[0] < 10  # ten packets merged, not ten segments
        store.delete("alice", DataQuery())
        assert gauges() == (0, 0)
        ingest_run(store, n=64)
        store.flush()
        # A rebuilt store of the same name takes the gauges over.
        fresh = SegmentStore("size-store", obs=obs)
        assert gauges() == (0, 0)
        ingest_run(fresh, n=128)
        fresh.flush()
        assert gauges() == (fresh.stats.n_segments, 128)


class TestCompaction:
    def test_compact_after_unmerged_ingest(self):
        store = SegmentStore(merge_policy=MergePolicy(enabled=False))
        ingest_run(store, n=640)
        store.flush()
        before = store.stats.n_segments
        store.optimizer.policy = MergePolicy(max_samples=4096)
        reduction = store.compact("alice")
        assert reduction > 0
        assert store.stats.n_segments == before - reduction
        # Data is intact.
        assert store.query("alice", DataQuery()).n_samples == 640

    def test_compact_noop_when_already_merged(self):
        store = SegmentStore(merge_policy=MergePolicy(max_samples=4096))
        ingest_run(store, n=640)
        store.flush()
        assert store.compact("alice") == 0


class TestPersistence:
    def test_save_load_preserves_queryability(self, tmp_path):
        """A store's segments leave and enter a snapshot as records."""
        service = DataStoreService("alice-db", Network(), directory=str(tmp_path))
        ingest_run(service.store, n=256)  # still buffered: the snapshot flushes
        write_snapshot(service)

        service2 = DataStoreService("alice-db", Network(), directory=str(tmp_path))
        assert recover_service(service2).loaded["segments"] > 0
        store2 = service2.store
        result = store2.query(
            "alice", DataQuery(channels=("ECG",), time_range=Interval(MONDAY, MONDAY + 10_000))
        )
        assert result.n_samples == 40
        assert store2.stats.n_samples == 256

    def test_add_segment_direct(self):
        store = SegmentStore()
        seg = make_segment(n=8)
        store.add_segment(seg)
        store.flush()
        assert store.stats.n_samples == 8
