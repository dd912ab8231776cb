"""A restart reads its journal once, a frame at a time.

:func:`~repro.storage.wal.read_wal` verifies and yields one frame at a
time and leaves the log's end on its ``WalScan``; recovery applies each
record as it is yielded and the WAL reopens at that end.  These tests pin
the three things that buys — one decode per frame and one read of the
file, a restart's transient memory bounded by a frame rather than the
log — and that the outcome is the whole-log loop's, damage included:
the report, the records, the quarantine files and the reopened WAL.
"""

import os
import shutil
import tracemalloc
import zlib
from pathlib import Path
from unittest import mock

import pytest

import repro.storage.recovery as recovery
import repro.storage.wal as wal_module
from repro.datastore.query import DataQuery
from repro.exceptions import CorruptRecordError
from repro.net.transport import Network
from repro.rules.model import ALLOW, Rule
from repro.server.datastore_service import DataStoreService
from repro.storage import records, wal_path
from repro.storage.wal import (
    _HEADER,
    HEADER_SIZE,
    MAX_FRAME_BYTES,
    WalScan,
    WriteAheadLog,
    decode_frame,
    decode_payload,
    encode_frame,
    read_wal,
    repair_wal,
    scan_wal,
)
from repro.util import jsonutil

from tests.conftest import MONDAY, make_segment, read_wal_frames

HOST = "st"


def restart(directory) -> DataStoreService:
    return DataStoreService(HOST, Network(), directory=str(directory), durable=True)


def journaled_store(directory) -> None:
    """A store whose WAL holds every record kind: roles, rules, segments,
    a deletion and audit appends — then closed, as by a crash."""
    service = restart(directory)
    service.register_contributor("alice")
    service.register_contributor("carol")
    service.register_consumer("bob")
    service.rules.add("alice", Rule(consumers=("bob",), action=ALLOW))
    service.rules.add("carol", Rule(consumers=("bob",), action=ALLOW))
    for i in range(4):
        start = MONDAY + i * 3_600_000
        service.store.add_segment(make_segment(contributor="alice", start_ms=start))
        service.store.add_segment(make_segment(contributor="carol", start_ms=start))
    service.store.flush()
    service.store.delete("carol", DataQuery())
    bob_key = service.keys.key_of("bob")
    for contributor in ("alice", "carol"):
        service.network.request(
            "POST",
            f"https://{HOST}/api/query",
            {"Contributor": contributor, "Query": {}, "ApiKey": bob_key},
        )
    service._wal_commit()
    service.durability.close()


def frames_of(directory) -> list:
    """``[lsn, payload]`` of each frame of the store's WAL."""
    return [
        [lsn, frame[HEADER_SIZE:]]
        for lsn, frame, _chain in read_wal_frames(wal_path(str(directory), HOST))
    ]


def rewrite(directory, frames) -> None:
    """Re-frame ``[lsn, payload]`` pairs, chained, as the store's WAL."""
    out, chain = [], 0
    for lsn, payload in frames:
        frame, chain = encode_frame(lsn, chain, payload)
        out.append(frame)
    Path(wal_path(str(directory), HOST)).write_bytes(b"".join(out))


def flip(directory, offset) -> None:
    path = Path(wal_path(str(directory), HOST))
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x10
    path.write_bytes(bytes(data))


def frame_offset(directory, index) -> int:
    return sum(HEADER_SIZE + len(payload) for _lsn, payload in frames_of(directory)[:index])


def torn_tail(directory):
    path = Path(wal_path(str(directory), HOST))
    path.write_bytes(path.read_bytes()[:-7])


def header_flip(directory):
    flip(directory, frame_offset(directory, 5) + 5)  # inside the LSN field


def payload_flip(directory):
    flip(directory, frame_offset(directory, 5) + HEADER_SIZE + 3)


def chain_break(directory):
    frames = frames_of(directory)
    path = Path(wal_path(str(directory), HOST))
    data = path.read_bytes()
    cut, end = frame_offset(directory, 5), frame_offset(directory, 6)
    path.write_bytes(data[:cut] + data[end:])
    assert len(frames_of(directory)) == 5 < len(frames)


def lsn_regression(directory):
    frames = frames_of(directory)
    frames[5][0] = frames[4][0]
    rewrite(directory, frames)


def undecodable(directory):
    frames = frames_of(directory)
    frames[5][1] = b"\xffnot a record"
    rewrite(directory, frames)


def refused_then_flip(directory):
    """A record the installer refuses, then a corrupt frame after it: the
    report reads the corruption's alert before the record's."""
    frames = frames_of(directory)
    frames[3][1] = b'{"Data":{},"Op":"bogus"}'
    rewrite(directory, frames)
    flip(directory, frame_offset(directory, 7) + HEADER_SIZE + 3)


DAMAGE = {
    "clean": lambda directory: None,
    "torn tail": torn_tail,
    "header bit flip": header_flip,
    "payload bit flip": payload_flip,
    "chain break": chain_break,
    "lsn regression": lsn_regression,
    "undecodable payload": undecodable,
    "refused record, then a payload flip": refused_then_flip,
}


def whole_log_scan(path) -> WalScan:
    """The whole-buffer scan a restart made before the one-pass reader: the
    file read into memory whole, every record decoded before any replay."""
    scan = WalScan(path=path)
    if not os.path.exists(path):
        return scan
    with open(path, "rb") as fh:
        data = fh.read()
    offset = chain_prev = last_lsn = 0
    while offset < len(data):
        remaining = len(data) - offset
        if remaining < HEADER_SIZE:
            scan.torn_bytes = remaining
            break
        length, lsn, chain, payload_crc, header_crc = _HEADER.unpack_from(data, offset)
        reason = ""
        if zlib.crc32(data[offset : offset + 16]) & 0xFFFFFFFF != header_crc:
            reason = "header checksum mismatch"
        elif length > MAX_FRAME_BYTES:
            reason = f"implausible frame length {length}"
        elif remaining < HEADER_SIZE + length:
            scan.torn_bytes = remaining
            break
        else:
            payload = data[offset + HEADER_SIZE : offset + HEADER_SIZE + length]
            if zlib.crc32(payload) & 0xFFFFFFFF != payload_crc:
                reason = "payload checksum mismatch"
            elif chain != zlib.crc32(payload, chain_prev) & 0xFFFFFFFF:
                reason = "chain break (frames missing or reordered)"
            elif lsn <= last_lsn:
                reason = f"LSN not monotonic ({lsn} after {last_lsn})"
            else:
                try:
                    scan.records.append((lsn, *decode_payload(payload)))
                except CorruptRecordError as exc:
                    reason = str(exc)
        if reason:
            scan.corrupt_offset, scan.corrupt_reason = offset, reason
            break
        chain_prev, last_lsn = chain, lsn
        offset += HEADER_SIZE + length
        scan.good_bytes, scan.chain, scan.next_lsn = offset, chain_prev, last_lsn + 1
    while scan.corrupt and offset + HEADER_SIZE <= len(data):
        end = offset + HEADER_SIZE + _HEADER.unpack_from(data, offset)[0]
        try:
            scan.suspect.append(decode_payload(decode_frame(data[offset:end])[2]))
        except CorruptRecordError:
            pass
        offset = end
    return scan


def whole_log_reader(scan):
    """``read_wal``'s shape over :func:`whole_log_scan`: all damage known
    and every record held before the first one is applied."""
    whole = whole_log_scan(scan.path)
    for name in ("chain", "next_lsn", "good_bytes", "torn_bytes", "corrupt_offset",
                 "corrupt_reason", "suspect"):
        setattr(scan, name, getattr(whole, name))
    return iter(whole.records)


def outcome(directory) -> dict:
    """Everything a restart leaves: report, records, quarantine, the WAL."""
    service = restart(directory)
    service._wal_commit()
    report = service.recovery_report.to_json()
    prefix = str(directory)
    report["Directory"] = "<dir>"
    report["QuarantinedFiles"] = [
        path.replace(prefix, "<dir>") for path in report["QuarantinedFiles"]
    ]
    report["Alerts"] = [alert.replace(prefix, "<dir>") for alert in report["Alerts"]]
    quarantine = Path(directory) / "quarantine"
    files = {
        path.name: path.read_bytes()
        for path in (sorted(quarantine.iterdir()) if quarantine.exists() else [])
    }
    dump = sorted(jsonutil.canonical_dumps([op, data]) for op, data in records.dump(service))
    wal = Path(wal_path(str(directory), HOST)).read_bytes()
    service.durability.close()
    return {"report": report, "dump": dump, "quarantine": files, "wal": wal}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
class TestSameOutcome:
    def test_the_reader_is_the_whole_log_scan(self, damage, tmp_path):
        journaled_store(tmp_path)
        DAMAGE[damage](tmp_path)
        path = wal_path(str(tmp_path), HOST)
        scan = WalScan(path=path)
        streamed = list(read_wal(scan))
        whole = whole_log_scan(path)
        assert streamed == whole.records == scan_wal(path).records
        assert scan.records == []  # the reader yields, it does not keep
        scan.records = streamed
        assert scan == whole

    def test_a_restart_leaves_what_the_whole_log_loop_left(self, damage, tmp_path):
        journaled_store(tmp_path / "built")
        DAMAGE[damage](tmp_path / "built")
        shutil.copytree(tmp_path / "built", tmp_path / "whole")
        with mock.patch.object(recovery, "read_wal", whole_log_reader):
            expected = outcome(tmp_path / "whole")
        got = outcome(tmp_path / "built")
        assert got == expected
        # A torn tail is the benign crash artifact: cut, not reported as damage.
        assert (damage in ("clean", "torn tail")) == got["report"]["Clean"]



@pytest.mark.parametrize("damage", sorted(set(DAMAGE) - {"clean", "torn tail"}))
def test_the_corruption_alert_comes_first(damage, tmp_path):
    journaled_store(tmp_path)
    DAMAGE[damage](tmp_path)
    alerts = restart(tmp_path).recovery_report.alerts
    assert alerts[0].startswith("WAL corrupt at offset")
    if damage.startswith("refused"):
        assert alerts[1].startswith("WAL record lsn=4 op='bogus' failed to apply")


class TestOnePass:
    def test_a_restart_decodes_each_frame_once_and_reads_the_file_once(self, tmp_path):
        journaled_store(tmp_path)
        path = wal_path(str(tmp_path), HOST)
        n_frames = len(frames_of(tmp_path))
        reads = []

        def counting_open(file, mode="r", *args, **kwargs):
            if file == path and "r" in mode:
                reads.append(mode)
            return open(file, mode, *args, **kwargs)

        with mock.patch.object(
            wal_module, "decode_payload", wraps=decode_payload
        ) as decoded, mock.patch.object(wal_module, "open", counting_open, create=True):
            service = restart(tmp_path)
        assert service.recovery_report.wal_records_replayed == n_frames
        assert decoded.call_count == n_frames
        assert reads == ["rb"]
        service.durability.close()

    def test_the_wal_reopens_at_the_end_the_replay_found(self, tmp_path):
        journaled_store(tmp_path)
        end = scan_wal(wal_path(str(tmp_path), HOST))
        service = restart(tmp_path)
        assert service.durability.wal.last_lsn == end.next_lsn - 1
        assert service.durability.wal.chain == end.chain
        service.durability.close()

    def test_a_log_longer_than_recovery_verified_is_refused(self, tmp_path):
        journaled_store(tmp_path)
        path = wal_path(str(tmp_path), HOST)
        torn_tail(tmp_path)
        with mock.patch.object(recovery, "repair_wal", lambda scan, **kw: None):
            with pytest.raises(CorruptRecordError, match="still damaged after recovery"):
                restart(tmp_path)
        service = restart(tmp_path)  # the repair heals it
        assert service.recovery_report.wal_torn_bytes > 0
        assert os.path.getsize(path) == scan_wal(path).good_bytes
        service.durability.close()


class TestBoundedMemory:
    def test_a_restart_holds_the_store_plus_about_a_frame(self, tmp_path):
        """A log of over 400 frames whose segments were mostly deleted again
        as they came: the store is small at every point of the replay, so
        any copy of the log shows.  Holding the file and its decoded
        records whole costs over 2x the log."""
        service = restart(tmp_path)
        service.register_contributor("alice")
        service.register_contributor("carol")
        for i in range(250):  # a segment frame, then (mostly) its deletion
            start = MONDAY + i * 3_600_000
            owner = "alice" if i % 25 == 0 else "carol"
            service.store.add_segment(make_segment(contributor=owner, start_ms=start, n=256))
            service.store.delete("carol", DataQuery())
        service._wal_commit()
        service.durability.close()
        path = wal_path(str(tmp_path), HOST)
        log_bytes = os.path.getsize(path)
        assert len(frames_of(tmp_path)) >= 400

        tracemalloc.start()
        try:
            restarted = restart(tmp_path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(restarted.store.segments_of("alice")) == 10
        assert restarted.store.segments_of("carol") == []
        assert peak - kept <= 0.25 * log_bytes, (peak - kept, log_bytes)
        restarted.durability.close()


class TestQuarantine:
    def test_a_corrupt_tail_is_quarantined_byte_for_byte_in_chunks(self, tmp_path):
        """The quarantine copy of a tail several copy chunks long is the
        file from the corrupt frame on, exactly."""
        path = str(tmp_path / "test.wal")
        log = WriteAheadLog(path)
        for i in range(120):
            log.append("segment", {"I": i, "Pad": "x" * 2048})
        log.close()
        original = Path(path).read_bytes()
        assert len(original) > 3 * shutil.COPY_BUFSIZE
        flip_at = len(original) // 10
        data = bytearray(original)
        data[flip_at] ^= 0x10
        Path(path).write_bytes(bytes(data))
        scan = WalScan(path=path)
        kept = list(read_wal(scan))
        assert scan.corrupt and 0 < len(kept) < 120
        qpath = repair_wal(scan, quarantine_dir=str(tmp_path / "quarantine"))
        assert Path(qpath).read_bytes() == bytes(data[scan.corrupt_offset :])
        assert Path(path).read_bytes() == original[: scan.good_bytes]
