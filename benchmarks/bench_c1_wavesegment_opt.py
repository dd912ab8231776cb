"""C1 — Wave-segment optimization (Section 5.1).

Claim: "The number of wave segments directly affects query performance
because it is the number of records stored in a database"; storing
per-tuple is "inefficient both in terms of storage size and querying
time"; stores therefore merge firmware packets (64-sample Zephyr ECG
packets) into large segments.

Workload: two hours of 8 Hz ECG shipped in 64-sample packets, ingested
under five policies — per-tuple rows, unmerged packets, and merging with
max-segment sizes 256 / 1024 / 4096 — then a one-minute range query.
Expected shape: merged stores hold >10x fewer records than per-packet and
>100x fewer than per-tuple, with correspondingly faster range queries.

End to end: the optimizer merges only neighbours with equal context
labels, so what a contributor-day becomes also depends on the phone
stamping every packet with the full label set — measured through
``SmartphoneAgent.collect`` at the ledger's ``rate_scale`` and at 1.0.
"""

import time

from repro.baselines.tuple_store import TupleStore
from repro.collection.phone import SmartphoneAgent
from repro.datastore.optimizer import MergePolicy
from repro.datastore.query import DataQuery
from repro.datastore.segment_store import SegmentStore
from repro.util.timeutil import Interval

from conftest import report_table
from helpers import MONDAY, alice_day, ecg_packets

HOURS = 2.0
QUERY_WINDOW = Interval(MONDAY + 30 * 60_000, MONDAY + 31 * 60_000)  # one minute
REPEATS = 50


def _segment_store(policy):
    store = SegmentStore(merge_policy=policy)
    for pkt in ecg_packets(HOURS):
        store.add_packet("alice", pkt)
    store.flush()
    return store


def _time_queries(fn):
    start = time.perf_counter()
    for _ in range(REPEATS):
        out = fn()
    elapsed_ms = (time.perf_counter() - start) * 1000 / REPEATS
    return out, elapsed_ms


def test_c1_policy_sweep(benchmark):
    rows = []

    # Per-tuple baseline.
    tuples = TupleStore()
    for pkt in ecg_packets(HOURS):
        tuples.add_packet("alice", pkt)
    result, tuple_ms = _time_queries(
        lambda: tuples.query_range("alice", QUERY_WINDOW, channels=["ECG"])
    )
    expected_samples = len(result)
    rows.append(
        ["per-tuple rows", tuples.record_count(), f"{tuples.storage_bytes:,}", f"{tuple_ms:.3f}"]
    )

    # Wave-segment policies.
    policies = [
        ("unmerged packets", MergePolicy(enabled=False)),
        ("merge to 256", MergePolicy(max_samples=256)),
        ("merge to 1024", MergePolicy(max_samples=1024)),
        ("merge to 4096", MergePolicy(max_samples=4096)),
    ]
    stats = {}
    for name, policy in policies:
        store = _segment_store(policy)
        query = DataQuery(channels=("ECG",), time_range=QUERY_WINDOW)
        result, q_ms = _time_queries(lambda s=store: s.query("alice", query))
        assert result.n_samples == expected_samples, name
        stats[name] = (store.stats.n_segments, q_ms)
        rows.append(
            [
                name,
                store.stats.n_segments,
                f"{store.stats.storage_bytes:,}",
                f"{q_ms:.3f}",
            ]
        )

    report_table(
        "C1 — Storage policy sweep (2 h of 8 Hz ECG in 64-sample packets; 1-min range query)",
        ["Policy", "DB records", "Storage bytes", "Query ms (mean)"],
        rows,
        notes="paper claim: record count drives query cost; merging packets into "
        "large wave segments is essential",
    )

    # Shape assertions.
    unmerged_records, unmerged_ms = stats["unmerged packets"]
    merged_records, merged_ms = stats["merge to 4096"]
    assert tuples.record_count() > 50 * unmerged_records
    assert unmerged_records > 10 * merged_records
    assert tuple_ms > merged_ms

    # Timed: the winning configuration's query path.
    store = _segment_store(MergePolicy(max_samples=4096))
    query = DataQuery(channels=("ECG",), time_range=QUERY_WINDOW)
    benchmark(lambda: store.query("alice", query))


def test_c1_compaction_recovers_merge_benefit(benchmark):
    """Data ingested unmerged can be compacted afterwards."""
    store = _segment_store(MergePolicy(enabled=False))
    before = store.stats.n_segments
    store.optimizer.policy = MergePolicy(max_samples=4096)

    reduction = benchmark.pedantic(lambda: store.compact("alice"), rounds=1, iterations=1)
    report_table(
        "C1 — Offline compaction",
        ["Metric", "Value"],
        [
            ["segments before", before],
            ["segments after", store.stats.n_segments],
            ["reduction", reduction],
        ],
    )
    assert store.stats.n_segments < before / 10


def test_c1_contributor_day_through_the_phone(benchmark):
    """Alice's day (Drive commuter, seed 1), labelled by the phone and
    merged by a default-policy store."""

    def stored_day(rate_scale):
        _, trace = alice_day(rate_scale=rate_scale, seed=1)
        agent = SmartphoneAgent("alice", "alice-store", client=None)
        kept = agent.collect(trace.all_packets_sorted(), upload=False)
        store = SegmentStore()
        for pkt in kept:
            store.add_packet("alice", pkt)
        store.flush()
        return len(kept), store.stats

    rows = []
    for rate_scale in (0.05, 1.0):
        packets, stats = stored_day(rate_scale)
        per_segment = stats.n_samples / stats.n_segments
        rows.append(
            [
                rate_scale,
                f"{packets:,}",
                f"{stats.n_samples:,}",
                f"{stats.n_segments:,}",
                f"{per_segment:.1f}",
            ]
        )
        assert per_segment >= 150, rate_scale
    report_table(
        "C1 — One contributor-day through the phone (default merge policy)",
        ["rate_scale", "Packets uploaded", "Samples", "Stored segments", "Samples/segment"],
        rows,
        notes="segments end where a context label or the location changes, so "
        "merging needs every packet to carry every label",
    )
    benchmark.pedantic(lambda: stored_day(0.05), rounds=1, iterations=1)


def test_c1_merge_ingest_throughput(benchmark):
    """Ingest throughput with merging on (the production configuration)."""
    packets = ecg_packets(0.25)

    def ingest():
        store = SegmentStore(merge_policy=MergePolicy(max_samples=4096))
        for pkt in packets:
            store.add_packet("alice", pkt)
        store.flush()
        return store

    store = benchmark(ingest)
    assert store.stats.n_samples == len(packets) * 64 or store.stats.n_samples > 0
