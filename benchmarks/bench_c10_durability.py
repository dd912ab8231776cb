"""C10 — Durability overhead and recovery time (crash-safe storage PR).

Claim under test: journaling every store mutation through the write-ahead
log costs little on the hot ingest path — **group commit stays near the
cost of serializing the bytes it appends** on the C1 workload — because
bulk segment appends ride the group-commit window (control-plane records
still sync on every append) and only the closing ``flush`` request is a
commit barrier: its ack makes the whole upload session durable.

The acceptance gate reads only the WAL's own counters: its in-path time
(:attr:`~repro.storage.wal.WriteAheadLog.io_seconds`: serialize + frame +
write + fsync, everything the journal adds to a request) per byte it
appended (:meth:`~repro.storage.wal.WriteAheadLog.size_bytes`), both taken
over the timed ingest alone.  A share of the rest of the request would
move whenever the rest got cheaper while the journal did the same work;
time per appended byte moves only when the journal does.  The wall-clock
comparison of the three sync policies against the bare in-memory store is
still reported, as context, from the minima over interleaved repeats.

Also measured: recovery (restart) time as the store grows — replaying a
WAL is linear in the records logged since the last checkpoint, and a
checkpointed store restarts from the snapshot without replay.  A second,
untimed restart of each directory counts the frames it decoded and traces
its transient memory (the peak above what the restarted store keeps): the
log is read once, a frame at a time, so the smoke requires one decode per
frame in the log, and the transient stays near one frame, not the log.

Run standalone for the CI smoke check::

    PYTHONPATH=src python benchmarks/bench_c10_durability.py --smoke
"""

import gc
import shutil
import sys
import tempfile
import time
import tracemalloc
from unittest import mock

import repro.storage.wal as wal_module
from repro.net.transport import Network
from repro.sensors.packets import encode_upload
from repro.server.datastore_service import DataStoreService

from conftest import format_table, report_table
from helpers import ecg_packets

HOURS = 2.0
#: Packets per simulated upload request; uploads ride the group-commit
#: window, and the closing flush request is the durability barrier.
PACKETS_PER_REQUEST = 32
#: On an ext4 VM disk the ``--smoke`` median reads 4.7–9.0 ns/B in group
#: mode (ten runs), a single run ~3.4 with ``never`` and 15–31 with
#: ``always`` (an fsync per append): the bound sits above group's spread
#: and below a sync per segment append.
MAX_JOURNAL_NS_PER_BYTE = 12.0
REPEATS = 5

INGEST_HEADERS = ["mode", "ingest ms", "overhead", "fsync policy"]
RECOVERY_HEADERS = [
    "hours",
    "segments",
    "WAL bytes",
    "recovery ms",
    "frames decoded",
    "transient KB",
    "via",
]


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
    """One timed ingest; returns ``(elapsed_ms, wal_in_path_ms, wal_bytes)``."""
    workdir = tempfile.mkdtemp(prefix="c10-")
    service = make_service(workdir)
    key = service.register_contributor("alice")
    wal = service.durability.wal if service.durability is not None else None
    io_before, bytes_before = (wal.io_seconds, wal.size_bytes()) if wal else (0.0, 0)
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        _ingest(service, key, requests)
        elapsed_ms = (time.perf_counter() - start) * 1000
    finally:
        gc.enable()
    wal_ms, wal_bytes = 0.0, 0
    if wal is not None:
        wal_ms = (wal.io_seconds - io_before) * 1000
        wal_bytes = wal.size_bytes() - bytes_before
        service.durability.close()
    shutil.rmtree(workdir, ignore_errors=True)
    return elapsed_ms, wal_ms, wal_bytes


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
    ns_per_byte = []  # per-repeat journal cost of the gated (group) mode
    wal_ms_samples = []
    for _ in range(repeats):
        for name, make in factories.items():
            ms, wal_ms, wal_bytes = _measure_once(requests, make)
            best[name] = min(ms, best.get(name, ms))
            if name == "group":
                ns_per_byte.append(wal_ms * 1e6 / wal_bytes)
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
    # The gated metric: time inside the journal per byte it appended
    # (median across repeats).  See module docstring.
    per_byte = _median(ns_per_byte)
    out["group"]["ns_per_byte"] = per_byte
    rows.append(
        [
            "wal in-path (group)",
            f"{_median(wal_ms_samples):.1f}",
            f"{per_byte:.1f} ns/B",
            "accounted: serialize+write+fsync",
        ]
    )
    out["rows"] = rows
    return out


def _traced_restart(workdir):
    """Restart ``workdir`` untimed; returns ``(frames decoded, transient KB)``.

    Transient is the traced peak during the restart above what the
    restarted store still holds once it is up.
    """
    decoded = 0
    decode = wal_module.decode_payload

    def counting(payload):
        nonlocal decoded
        decoded += 1
        return decode(payload)

    with mock.patch.object(wal_module, "decode_payload", counting):
        tracemalloc.start()
        try:
            restarted = _build(workdir, durable=True)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    restarted.durability.close()
    return decoded, (peak - kept) / 1024


def run_recovery_scaling(hours_list=(0.25, 0.5, 1.0)):
    """Restart time vs store size, WAL-replay vs snapshot paths.

    Returns ``(rows, extra_decodes)``: ``extra_decodes`` names every row
    whose restart decoded a frame count other than the frames in its log.
    """
    rows = []
    extra_decodes = []
    for hours in hours_list:
        for checkpointed in (False, True):
            workdir = tempfile.mkdtemp(prefix="c10-rec-")
            service = _build(workdir, durable=True)
            key = service.register_contributor("alice")
            _ingest(service, key, _requests_for(ecg_packets(hours)))
            if checkpointed:
                service.checkpoint()
            wal_bytes = service.durability.wal.size_bytes()
            n_frames = len(wal_module.scan_wal(service.durability.wal.path).records)
            n_segments = service.store.stats.n_segments
            service.durability.close()

            start = time.perf_counter()
            restarted = _build(workdir, durable=True)
            recovery_ms = (time.perf_counter() - start) * 1000
            report = restarted.recovery_report
            assert report.clean
            restarted.durability.close()
            decoded, transient_kb = _traced_restart(workdir)
            if decoded != n_frames:
                extra_decodes.append(
                    f"{hours:g}h: {decoded} frames decoded, {n_frames} in the log"
                )
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
                    decoded,
                    f"{transient_kb:,.0f}",
                    via,
                ]
            )
            shutil.rmtree(workdir, ignore_errors=True)
    return rows, extra_decodes


def test_c10_wal_ingest_overhead(benchmark):
    result = run_ingest_comparison()
    report_table(
        f"C10 — WAL ingest overhead ({HOURS:g}h of 8 Hz ECG, "
        f"{result['packets']} packets)",
        INGEST_HEADERS,
        result["rows"],
        notes="Acceptance: accounted in-path journal time < "
        f"{MAX_JOURNAL_NS_PER_BYTE:g} ns per appended byte (group mode); "
        "wall-clock rows are context, minima over interleaved repeats.",
    )
    assert result["group"]["ns_per_byte"] < MAX_JOURNAL_NS_PER_BYTE, (
        f"group-commit WAL in-path {result['group']['ns_per_byte']:.1f} ns/B "
        f"exceeds {MAX_JOURNAL_NS_PER_BYTE:g}"
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
    rows, extra_decodes = run_recovery_scaling()
    report_table(
        "C10 — Recovery time vs store size",
        RECOVERY_HEADERS,
        rows,
        notes="WAL replay is linear in records since the last checkpoint; "
        "a checkpointed store restarts from the snapshot without replay. "
        "A restart decodes each frame of its log once and holds about one "
        "frame beyond the store it rebuilds (transient KB, traced).",
    )
    # The snapshot path never replays; the WAL path always does.
    assert all("(0 records)" not in r[-1] for r in rows if "wal" in r[-1])
    assert extra_decodes == []


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
    recovery_rows, extra_decodes = run_recovery_scaling(hours_list=(0.25,))
    print("\nC10 — Recovery time")
    print(
        format_table(
            RECOVERY_HEADERS, [[str(c) for c in r] for r in recovery_rows]
        )
    )
    per_byte = result["group"]["ns_per_byte"]
    if per_byte >= MAX_JOURNAL_NS_PER_BYTE:
        print(
            f"DURABILITY SMOKE FAILED: group journal {per_byte:.1f} ns/B "
            f">= {MAX_JOURNAL_NS_PER_BYTE:g}"
        )
        return 1
    if extra_decodes:
        print(
            "DURABILITY SMOKE FAILED: a restart decoded frames other than "
            "once each: " + "; ".join(extra_decodes)
        )
        return 1
    print(
        f"durability smoke ok (group journal {per_byte:.1f} ns/B; "
        "each restart decoded every frame of its log once)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
