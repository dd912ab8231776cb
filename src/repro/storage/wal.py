"""Checksummed, length-prefixed, fsync-on-commit write-ahead log.

Every store mutation (an upload's or flush's segments, rule set/delete,
places, roles, audit appends) is framed and appended here *before* it is
acknowledged; on restart the log replays over the last good snapshot
(:mod:`repro.storage.recovery`).  Losing a privacy rule would silently
widen sharing, so the frame format is built to make every failure mode
*detectable*:

``[length u32][lsn u32][chain u32][payload_crc u32][header_crc u32][payload]``

The payload is the record ``{"Op", "Data"}`` in its wire form
(:mod:`repro.net.wire`): canonical JSON, and after it the record's
``bytes`` leaves.  The segments one request stored are one segment batch
record (:func:`repro.storage.records.segment_batch`), their samples one
``le-f64`` part, not base64 text: one upload is one frame, one ``write``
and one shipped frame, and a torn batch is dropped whole with its frame.
A per-segment record of an older log carries its samples as one part or
as base64 text; a record with no ``bytes`` leaf (rules, roles, places,
audit, a migrated segment, and every record of a log written before
segments carried parts) is exactly its canonical JSON, so one reader
takes old, new and mixed logs alike, with no format byte.  JSON-lines
snapshots keep base64 (:mod:`repro.datastore.codec`).

* **length / payload_crc** — a record is trusted only when its payload is
  complete and its CRC-32 matches;
* **header_crc** (CRC-32 of the first 16 header bytes) — distinguishes a
  *torn tail* from *media corruption*: a crash mid-append tears the frame
  as a byte prefix, so either fewer than 20 header bytes survive or a
  valid header precedes a short payload.  A full header that fails its own
  CRC can only be a flipped bit — corruption, never a benign tear;
* **chain** — CRC-32 of the payload seeded with the previous frame's
  chain value.  A frame deleted or reordered mid-log breaks the chain of
  every later frame, so a shorter, plausible-looking log cannot pass as
  complete (the audit-trail integrity requirement);
* **lsn** — monotonically increasing log sequence number; the checkpoint
  manifest records the LSN it covers, making replay idempotent when a
  crash lands between snapshot commit and log reset.

Scan policy (:func:`read_wal`, which reads the file a frame at a time and
yields each frame it verified): a torn tail is the expected crash artifact
— the in-flight append was never acknowledged — and is truncated away by
:func:`repair_wal`.  Anything else (bad header CRC, bad payload CRC, chain
or LSN break) marks the frame *and everything after it* as suspect; those
bytes are quarantined, never silently dropped, and recovery fails closed
for privacy rules.

Sync policies: ``"always"`` fsyncs every append (every ack is durable),
``"group"`` fsyncs every :data:`GROUP_COMMIT_APPENDS` appends or on
:meth:`~WriteAheadLog.commit` (bounded loss window for bulk data; callers
force-sync control-plane records), ``"never"`` leaves flushing to the OS
(benchmark baseline only).
"""

from __future__ import annotations

import os
import shutil
import struct
import time
import zlib
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.exceptions import CorruptRecordError, SensorSafeError, StorageError
from repro.net import wire

_HEADER = struct.Struct("<IIIII")  # length, lsn, chain, payload_crc, header_crc
HEADER_SIZE = _HEADER.size
#: No legitimate frame approaches this; a "length" beyond it is corruption.
MAX_FRAME_BYTES = 1 << 28
#: "group" sync: fsync after this many appends even without a commit().
GROUP_COMMIT_APPENDS = 64

SYNC_ALWAYS = "always"
SYNC_GROUP = "group"
SYNC_NEVER = "never"
_SYNC_MODES = (SYNC_ALWAYS, SYNC_GROUP, SYNC_NEVER)


def _chain(payload: bytes, prev: int) -> int:
    return zlib.crc32(payload, prev) & 0xFFFFFFFF


def encode_frame(lsn: int, chain_prev: int, payload: bytes) -> tuple:
    """Returns ``(frame_bytes, new_chain)`` for one payload."""
    chain = _chain(payload, chain_prev)
    head = struct.pack("<IIII", len(payload), lsn, chain, zlib.crc32(payload) & 0xFFFFFFFF)
    header = head + struct.pack("<I", zlib.crc32(head) & 0xFFFFFFFF)
    return header + payload, chain


def decode_frame(frame: bytes, *, chain_prev: Optional[int] = None) -> tuple:
    """Verify one framed record and return ``(lsn, chain, payload)``.

    The exact-length inverse of :func:`encode_frame`, used by replication
    to validate frames shipped over the network with the same rigor the
    on-disk scanner applies: header CRC, plausible length, payload CRC —
    and, when ``chain_prev`` is given, that the frame's chain value binds
    the payload to that history.  Raises
    :class:`~repro.exceptions.CorruptRecordError` on any mismatch; a frame
    that does not verify must never be applied.
    """
    if len(frame) < HEADER_SIZE:
        raise CorruptRecordError(f"frame shorter than its header ({len(frame)} bytes)")
    length, lsn, chain, payload_crc, header_crc = _HEADER.unpack_from(frame, 0)
    if zlib.crc32(frame[:16]) & 0xFFFFFFFF != header_crc:
        raise CorruptRecordError("frame header checksum mismatch")
    if length > MAX_FRAME_BYTES:
        raise CorruptRecordError(f"implausible frame length {length}")
    if len(frame) != HEADER_SIZE + length:
        raise CorruptRecordError(
            f"frame length mismatch: header says {length}, got {len(frame) - HEADER_SIZE}"
        )
    payload = frame[HEADER_SIZE:]
    if zlib.crc32(payload) & 0xFFFFFFFF != payload_crc:
        raise CorruptRecordError("frame payload checksum mismatch")
    if chain_prev is not None and chain != _chain(payload, chain_prev):
        raise CorruptRecordError("frame chain mismatch (frames missing or reordered)")
    return lsn, chain, payload


def decode_payload(payload: bytes) -> tuple:
    """Parse one frame payload, a wire body (:func:`repro.net.wire.decode`),
    into ``(op, data)``.

    A payload that is not a wire-form object with an ``Op`` is corruption
    the CRCs could not see; raises
    :class:`~repro.exceptions.CorruptRecordError`.
    """
    try:
        obj = wire.decode(payload)
        return str(obj["Op"]), obj.get("Data", {})
    except (SensorSafeError, KeyError, TypeError) as exc:
        raise CorruptRecordError(f"undecodable payload: {exc}") from exc


@dataclass
class WalScan:
    """Result of reading a WAL file back: its end plus damage assessment."""

    path: str
    #: ``(lsn, op, data)`` for every intact, chain-consistent frame; filled
    #: only by :func:`scan_wal` (:func:`read_wal` yields them instead).
    records: list = field(default_factory=list)
    chain: int = 0  # chain value after the last good frame
    next_lsn: int = 1
    good_bytes: int = 0  # file offset after the last good frame
    torn_bytes: int = 0  # benign trailing bytes from an in-flight append
    corrupt_offset: Optional[int] = None  # first untrustworthy byte, if any
    corrupt_reason: str = ""
    #: ``(op, data)`` of checksum-intact frames past a corruption: never
    #: replayed, but evidence of whom the lost records named.
    suspect: list = field(default_factory=list)

    @property
    def torn(self) -> bool:
        """True when the file ends in a half-written (torn) record."""
        return self.torn_bytes > 0

    @property
    def corrupt(self) -> bool:
        """True when a checksum, header, or chain mismatch was found."""
        return self.corrupt_offset is not None


def read_wal(scan: WalScan) -> Iterator[tuple]:
    """Yield ``(lsn, op, data)`` of each verified frame of ``scan.path``.

    The one WAL reader: it holds one frame at a time, never the file, and
    checks each frame (header CRC, plausible length, payload CRC, chain,
    monotonic LSN, decodable payload) before yielding it.  When it stops
    it has filled ``scan`` with the log's end (``good_bytes``, ``chain``,
    ``next_lsn``) and its damage (torn bytes, the corrupt offset and
    reason, the suspect records past a corruption); ``scan.records`` is
    left alone.  Never raises on bad bytes.
    """
    if not os.path.exists(scan.path):
        return
    with open(scan.path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        offset = 0
        chain_prev = 0
        last_lsn = 0
        while offset < size:
            remaining = size - offset
            if remaining < HEADER_SIZE:
                scan.torn_bytes = remaining  # tear landed inside the header
                return
            header = fh.read(HEADER_SIZE)
            length, lsn, chain, payload_crc, header_crc = _HEADER.unpack(header)
            if zlib.crc32(header[:16]) & 0xFFFFFFFF != header_crc:
                scan.corrupt_reason = "header checksum mismatch"
            elif length > MAX_FRAME_BYTES:
                scan.corrupt_reason = f"implausible frame length {length}"
            elif remaining < HEADER_SIZE + length:
                scan.torn_bytes = remaining  # valid header, short payload: torn
                return
            else:
                payload = fh.read(length)
                if zlib.crc32(payload) & 0xFFFFFFFF != payload_crc:
                    scan.corrupt_reason = "payload checksum mismatch"
                elif chain != _chain(payload, chain_prev):
                    scan.corrupt_reason = "chain break (frames missing or reordered)"
                elif lsn <= last_lsn:
                    scan.corrupt_reason = f"LSN not monotonic ({lsn} after {last_lsn})"
                else:
                    try:
                        op, body = decode_payload(payload)
                    except CorruptRecordError as exc:
                        scan.corrupt_reason = str(exc)
            if scan.corrupt_reason:
                scan.corrupt_offset = offset
                break
            chain_prev = chain
            last_lsn = lsn
            offset += HEADER_SIZE + length
            scan.good_bytes = offset
            scan.chain = chain_prev
            scan.next_lsn = last_lsn + 1
            yield lsn, op, body
        while scan.corrupt and offset + HEADER_SIZE <= size:
            fh.seek(offset)
            header = fh.read(HEADER_SIZE)
            length = _HEADER.unpack(header)[0]
            # A flipped length may point past the end: read what is there.
            frame = header + fh.read(min(length, size - offset - HEADER_SIZE))
            try:  # best effort: a flipped length loses the frames it skips
                scan.suspect.append(decode_payload(decode_frame(frame)[2]))
            except CorruptRecordError:
                pass
            offset += HEADER_SIZE + length


def scan_wal(path: str) -> WalScan:
    """Parse a WAL file, classifying any damage; never raises on bad bytes.

    :func:`read_wal` drained into ``records``, for tools and tests; a
    restart replays from the reader itself and keeps no list of records.
    """
    scan = WalScan(path=path)
    scan.records = list(read_wal(scan))
    return scan


def repair_wal(scan: WalScan, *, quarantine_dir: Optional[str] = None) -> Optional[str]:
    """Truncate a damaged WAL to its last good frame.

    A torn tail is simply cut (the append was never acknowledged).  Bytes
    from a *corrupt* frame onward are copied into ``quarantine_dir`` first
    — evidence is preserved, never silently dropped.  Returns the
    quarantine file path when one was written.
    """
    if not (scan.torn or scan.corrupt):
        return None
    quarantine_path = None
    if scan.corrupt and quarantine_dir is not None:
        os.makedirs(quarantine_dir, exist_ok=True)
        name = os.path.basename(scan.path)
        quarantine_path = os.path.join(
            quarantine_dir, f"{name}.offset{scan.corrupt_offset}.bin"
        )
        with open(scan.path, "rb") as src, open(quarantine_path, "wb") as fh:
            src.seek(scan.corrupt_offset)
            shutil.copyfileobj(src, fh)  # in chunks, never the tail whole
            fh.flush()
            os.fsync(fh.fileno())
    with open(scan.path, "r+b") as fh:
        fh.truncate(scan.good_bytes)
        fh.flush()
        os.fsync(fh.fileno())
    return quarantine_path


class WriteAheadLog:
    """Append-only durable log of store mutations.

    Open over an *already repaired* file (see :func:`read_wal` /
    :func:`repair_wal`; the recovery path does this).  ``resume`` is the
    log's end recovery's pass found; given none, the constructor reads the
    file through once and refuses a damaged log rather than appending
    garbage after garbage.
    """

    def __init__(
        self,
        path: str,
        *,
        sync: str = SYNC_ALWAYS,
        faults=None,
        resume: Optional[WalScan] = None,
    ):
        if sync not in _SYNC_MODES:
            raise StorageError(f"unknown WAL sync policy {sync!r}; use {_SYNC_MODES}")
        self.path = path
        self.sync = sync
        self.faults = faults
        if resume is None:
            resume = WalScan(path=path)
            for _record in read_wal(resume):
                pass
            if resume.corrupt or resume.torn:
                raise CorruptRecordError(
                    f"WAL {path!r} is damaged ({resume.corrupt_reason or 'torn tail'}); "
                    "run recovery before appending"
                )
        self._chain = resume.chain
        self._next_lsn = resume.next_lsn
        self._last_lsn = resume.next_lsn - 1
        self._unsynced = 0
        self.appended = 0  # appends through this handle (not the file total)
        #: Observers fired after every successful append with
        #: ``(lsn, frame_bytes, chain_prev)`` — the exact framed bytes that
        #: landed on disk plus the chain value they extend.  Replication
        #: (:mod:`repro.storage.replication`) tails the log through this
        #: hook; replay and recovery never fire it.
        self.on_append: list = []
        #: Wall-clock seconds spent inside append()/commit() — the journal's
        #: entire cost on the request path (serialize, frame, write, fsync).
        #: Benchmark C10 gates on this share of ingest time: accounting
        #: measured *inside* one run is immune to host drift between runs.
        self.io_seconds = 0.0
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        self._fh = open(path, "ab")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def chain(self) -> int:
        """The running CRC chain value binding the next record to history."""
        return self._chain

    @property
    def last_lsn(self) -> int:
        """LSN of the most recently appended record (0 when empty)."""
        return self._last_lsn

    def size_bytes(self) -> int:
        """Current on-disk size of the log file in bytes."""
        return os.fstat(self._fh.fileno()).st_size

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def append(
        self,
        op: str,
        data: dict,
        *,
        force_sync: bool = False,
        payload: Optional[bytes] = None,
    ) -> int:
        """Frame and append one record; returns its LSN.

        ``force_sync=True`` makes this append durable before returning
        regardless of the group policy — the control-plane records (rules,
        roles, places, audit) always pass it, so an acknowledged rule
        change is on disk even when bulk segment data rides group commit.

        ``payload`` is the record's encoding when the caller already holds
        it (a replica re-journaling a shipped frame it verified byte for
        byte); given none, the record is encoded here.
        """
        started = time.perf_counter()
        if payload is None:
            payload = wire.encode({"Op": op, "Data": data})
        chain_prev = self._chain
        frame, chain = encode_frame(self._next_lsn, chain_prev, payload)
        if self.faults is not None:
            self.faults.at_point("wal.append.pre_write", path=self.path)
            self.faults.write("wal.append.write", self._fh, frame, path=self.path)
        else:
            self._fh.write(frame)
        self._fh.flush()
        self._unsynced += 1
        if self._should_sync(force_sync):
            if self.faults is not None:
                self.faults.at_point("wal.append.pre_fsync", path=self.path)
            os.fsync(self._fh.fileno())
            self._unsynced = 0
            if self.faults is not None:
                self.faults.at_point("wal.append.post_fsync", path=self.path)
        lsn = self._next_lsn
        self._chain = chain
        self._last_lsn = lsn
        self._next_lsn += 1
        self.appended += 1
        self.io_seconds += time.perf_counter() - started
        for hook in self.on_append:
            hook(lsn, frame, chain_prev)
        return lsn

    def _should_sync(self, force: bool) -> bool:
        if self.sync == SYNC_NEVER:
            return False
        if self.sync == SYNC_ALWAYS or force:
            return True
        return self._unsynced >= GROUP_COMMIT_APPENDS

    def commit(self) -> None:
        """Make everything appended so far durable (group-commit barrier)."""
        if self.sync == SYNC_NEVER or self._unsynced == 0:
            return
        started = time.perf_counter()
        if self.faults is not None:
            self.faults.at_point("wal.commit.pre_fsync", path=self.path)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._unsynced = 0
        self.io_seconds += time.perf_counter() - started

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------

    def reset(self, last_lsn: Optional[int] = None) -> None:
        """Empty the log after a checkpoint; LSNs keep counting upward.

        ``last_lsn`` renumbers it: the next append is ``last_lsn + 1``.  The
        chain restarts at zero; across generations the manifest records
        the ``CheckpointLsn`` it covers and the ``Epoch``, no chain value.
        """
        self._fh.truncate(0)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.seek(0)
        self._chain = 0
        self._unsynced = 0
        if last_lsn is not None:
            self._last_lsn, self._next_lsn = last_lsn, last_lsn + 1

    def close(self) -> None:
        """Close the underlying file handle."""
        try:
            self.commit()
        finally:
            self._fh.close()
