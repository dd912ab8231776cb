"""C10 — Durability overhead and recovery time (crash-safe storage PR).

Claim under test: journaling every store mutation through the write-ahead
log costs little on the hot ingest path — **group-commit mode stays under
15% of ingest time** on the C1 workload — because bulk segment appends
ride the group-commit window (control-plane records still sync on every
append) and only the closing ``flush`` request is a commit barrier: its
ack makes the whole upload session durable.

The acceptance gate uses the WAL's own in-path accounting
(:attr:`~repro.storage.wal.WriteAheadLog.io_seconds`: serialize + frame +
write + fsync, everything the journal adds to a request): the share of
one run's wall clock spent inside the journal.  Numerator and denominator
come from the *same* run, so the gate is immune to the host drifting
between two separately timed runs — which on shared machines is far
larger than the effect under test.  The wall-clock comparison of the
three sync policies against the bare in-memory store is still reported,
as context, from the minima over interleaved repeats.

Also measured: recovery (restart) time as the store grows — replaying a
WAL is linear in the records logged since the last checkpoint, and a
checkpointed store restarts from the snapshot without replay.

Run standalone for the CI smoke check::

    PYTHONPATH=src python benchmarks/bench_c10_durability.py --smoke
"""

import gc
import shutil
import sys
import tempfile
import time

from repro.net.transport import Network
from repro.sensors.packets import encode_upload
from repro.server.datastore_service import DataStoreService

from conftest import format_table, report_table
from helpers import ecg_packets

HOURS = 2.0
#: Packets per simulated upload request; uploads ride the group-commit
#: window, and the closing flush request is the durability barrier.
PACKETS_PER_REQUEST = 32
MAX_GROUP_OVERHEAD = 0.15
REPEATS = 5

INGEST_HEADERS = ["mode", "ingest ms", "overhead", "fsync policy"]
RECOVERY_HEADERS = ["hours", "segments", "WAL bytes", "recovery ms", "via"]


def _ingest(service, key, requests):
    """Drive the real upload API; the closing flush is the commit barrier."""
    for body in requests:
        service.network.request(
            "POST",
            "https://bench/api/upload_packets",
            dict(body, ApiKey=key),
        )
    service.network.request(
        "POST", "https://bench/api/flush", {"Contributor": "alice", "ApiKey": key}
    )


def _requests_for(packets):
    return [
        {
            "Contributor": "alice",
            "Upload": encode_upload(packets[i : i + PACKETS_PER_REQUEST]),
        }
        for i in range(0, len(packets), PACKETS_PER_REQUEST)
    ]


def _build(directory=None, **kwargs):
    return DataStoreService(
        "bench", Network(), directory=directory, **kwargs
    )


def _measure_once(requests, make_service):
    """One timed ingest; returns ``(elapsed_ms, wal_in_path_ms)``."""
    workdir = tempfile.mkdtemp(prefix="c10-")
    service = make_service(workdir)
    key = service.register_contributor("alice")
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        _ingest(service, key, requests)
        elapsed_ms = (time.perf_counter() - start) * 1000
    finally:
        gc.enable()
    wal_ms = 0.0
    if service.durability is not None:
        wal_ms = service.durability.wal.io_seconds * 1000
        service.durability.close()
    shutil.rmtree(workdir, ignore_errors=True)
    return elapsed_ms, wal_ms


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def run_ingest_comparison(hours=HOURS, repeats=REPEATS):
    packets = ecg_packets(hours)
    requests = _requests_for(packets)
    # Round-robin the modes inside each repeat and keep per-mode minima,
    # so slow drift of the host (caches, other load) cancels out instead
    # of biasing whichever mode ran last.
    factories = {
        "bare": lambda d: _build(),
        "group": lambda d: _build(d, durable=True, wal_sync="group"),
        "always": lambda d: _build(d, durable=True, wal_sync="always"),
        "never": lambda d: _build(d, durable=True, wal_sync="never"),
    }
    best: dict = {}
    shares = []  # per-repeat accounted overhead of the gated (group) mode
    wal_ms_samples = []
    for _ in range(repeats):
        for name, make in factories.items():
            ms, wal_ms = _measure_once(requests, make)
            best[name] = min(ms, best.get(name, ms))
            if name == "group":
                shares.append(wal_ms / (ms - wal_ms))
                wal_ms_samples.append(wal_ms)
    bare_ms = best["bare"]
    rows = [["bare in-memory", f"{bare_ms:.1f}", "-", "-"]]
    out = {"bare_ms": bare_ms, "packets": len(packets)}
    policy_notes = {
        "group": "group window + flush barrier",
        "always": "every append",
        "never": "none (crash loses tail)",
    }
    for sync in ("group", "always", "never"):
        wall_overhead = best[sync] / bare_ms - 1
        out[sync] = {"ms": best[sync], "wall_overhead": wall_overhead}
        rows.append(
            [
                f"durable wal ({sync})",
                f"{best[sync]:.1f}",
                f"{wall_overhead:+.1%}",
                policy_notes[sync],
            ]
        )
    # The gated metric: time spent inside the journal as a share of the
    # rest of the same run (median across repeats).  See module docstring.
    overhead = _median(shares)
    out["group"]["overhead"] = overhead
    rows.append(
        [
            "wal in-path (group)",
            f"{_median(wal_ms_samples):.1f}",
            f"{overhead:+.1%}",
            "accounted: serialize+write+fsync",
        ]
    )
    out["rows"] = rows
    return out


def run_recovery_scaling(hours_list=(0.25, 0.5, 1.0)):
    """Restart time vs store size, WAL-replay vs snapshot paths."""
    rows = []
    for hours in hours_list:
        for checkpointed in (False, True):
            workdir = tempfile.mkdtemp(prefix="c10-rec-")
            service = _build(workdir, durable=True)
            key = service.register_contributor("alice")
            _ingest(service, key, _requests_for(ecg_packets(hours)))
            if checkpointed:
                service.checkpoint()
            wal_bytes = service.durability.wal.size_bytes()
            n_segments = service.store.stats.n_segments
            service.durability.close()

            start = time.perf_counter()
            restarted = _build(workdir, durable=True)
            recovery_ms = (time.perf_counter() - start) * 1000
            report = restarted.recovery_report
            assert report.clean
            via = (
                f"snapshot (gen {report.generation})"
                if checkpointed
                else f"wal replay ({report.wal_records_replayed} records)"
            )
            rows.append(
                [
                    f"{hours:g}",
                    n_segments,
                    f"{wal_bytes:,}",
                    f"{recovery_ms:.1f}",
                    via,
                ]
            )
            restarted.durability.close()
            shutil.rmtree(workdir, ignore_errors=True)
    return rows


def test_c10_wal_ingest_overhead(benchmark):
    result = run_ingest_comparison()
    report_table(
        f"C10 — WAL ingest overhead ({HOURS:g}h of 8 Hz ECG, "
        f"{result['packets']} packets)",
        INGEST_HEADERS,
        result["rows"],
        notes="Acceptance: accounted in-path share of the journal < "
        f"{MAX_GROUP_OVERHEAD:.0%} of ingest (group mode); wall-clock "
        "rows are context, minima over interleaved repeats.",
    )
    assert result["group"]["overhead"] < MAX_GROUP_OVERHEAD, (
        f"group-commit WAL in-path overhead {result['group']['overhead']:.1%} "
        f"exceeds {MAX_GROUP_OVERHEAD:.0%}"
    )

    benchmark.extra_info["bare_ms"] = round(result["bare_ms"], 1)
    for sync in ("group", "always", "never"):
        benchmark.extra_info[f"{sync}_ms"] = round(result[sync]["ms"], 1)
    requests = _requests_for(ecg_packets(0.1))
    workdir = tempfile.mkdtemp(prefix="c10-bench-")
    service = _build(workdir, durable=True)
    key = service.register_contributor("alice")
    try:
        benchmark(lambda: _ingest(service, key, requests))
    finally:
        service.durability.close()
        shutil.rmtree(workdir, ignore_errors=True)


def test_c10_recovery_time_scales():
    rows = run_recovery_scaling()
    report_table(
        "C10 — Recovery time vs store size",
        RECOVERY_HEADERS,
        rows,
        notes="WAL replay is linear in records since the last checkpoint; "
        "a checkpointed store restarts from the snapshot without replay.",
    )
    # The snapshot path never replays; the WAL path always does.
    assert all("(0 records)" not in r[4] for r in rows if "wal" in r[4])


def main(argv) -> int:
    """CI smoke mode: reduced workload, same acceptance gate."""
    if "--smoke" not in argv:
        print(__doc__)
        return 2
    result = run_ingest_comparison(hours=1.0)
    print("C10 — WAL ingest overhead (1h smoke workload)")
    print(
        format_table(
            INGEST_HEADERS, [[str(c) for c in r] for r in result["rows"]]
        )
    )
    recovery_rows = run_recovery_scaling(hours_list=(0.25,))
    print("\nC10 — Recovery time")
    print(
        format_table(
            RECOVERY_HEADERS, [[str(c) for c in r] for r in recovery_rows]
        )
    )
    if result["group"]["overhead"] >= MAX_GROUP_OVERHEAD:
        print(
            f"DURABILITY SMOKE FAILED: group overhead "
            f"{result['group']['overhead']:+.1%} >= {MAX_GROUP_OVERHEAD:.0%}"
        )
        return 1
    print(f"durability smoke ok (group {result['group']['overhead']:+.1%})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
