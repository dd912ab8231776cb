"""The durability manager: WAL + checkpoints wired into a live service.

One :class:`Durability` instance owns crash safety for one
:class:`~repro.server.datastore_service.DataStoreService`:

* :meth:`open` runs :func:`~repro.storage.recovery.recover_service`
  (snapshot + WAL replay + fail-closed), then opens the write-ahead log
  and hooks every mutation source — rule changes, segment persists and
  unpersists, audit appends — so each is journaled *before* the API call
  that caused it returns;
* :meth:`checkpoint` snapshots the full service state through
  :func:`write_snapshot`, records a manifest (generation marker +
  checkpoint LSN + epoch + member + SHA-256s), and resets the WAL.  A crash
  at *any* interior point leaves a state recovery handles: the manifest
  and log cover each other, and name the store's replication position.

Durability classes: :meth:`Durability.journal` is the one place a record
reaches the WAL with a sync class.  Control-plane records
(:data:`~repro.storage.records.CONTROL_OPS`: rules, roles, places, audit)
are appended with ``force_sync`` — an acknowledged rule change is on disk
before the ack, whatever the sync policy — while bulk segment data rides
the group-commit window until a *barrier-bearing* request (``flush``,
``delete``) calls :meth:`commit`.  A crash can therefore lose the last
un-flushed uploads — data the device still buffers and re-sends — which
is the bounded-loss trade that keeps WAL overhead on ingest inside the
benchmark C10 budget.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Optional

from repro.exceptions import CorruptRecordError, StorageError
from repro.storage.atomic import atomic_write_bytes, atomic_write_jsonl, file_sha256
from repro.storage.records import (
    CONTROL_OPS,
    OP_AUDIT,
    OP_RULES,
    OP_SEGMENT_BATCH,
    OP_SEGMENT_DELETE,
    dump_op,
    segment_batch,
)
from repro.storage.recovery import (
    SNAPSHOT_KINDS,
    RecoveryReport,
    manifest_path,
    recover_service,
    snapshot_path,
)
from repro.storage.wal import SYNC_GROUP, WriteAheadLog
from repro.util import jsonutil


def write_snapshot(service, directory: Optional[str] = None, *, faults=None) -> list:
    """Write a service's full state as snapshot files; returns their paths.

    Each file is the one dumper's records of that file's op
    (:func:`~repro.storage.records.dump_op`), one ``data`` per line, drawn
    as the file is built: a segment is serialised once, into its row.
    Buffered segments are flushed first, so the snapshot holds everything
    the store was sent.  Each file is replaced atomically (temp + fsync +
    rename, never in place), so a crash mid-save leaves the previous
    complete file.  API keys are never written: they rotate at restart.
    :func:`recover_service` is the loader.
    """
    directory = directory or service.directory
    if directory is None:
        raise StorageError(
            f"store {service.host!r} has no persistence directory configured"
        )
    service.store.flush()
    return [
        atomic_write_jsonl(
            snapshot_path(directory, service.host, kind),
            dump_op(service, kind_op),
            faults=faults,
        )
        for kind, kind_op in SNAPSHOT_KINDS
    ]


class Durability:
    """Crash-safe persistence for one data store service."""

    def __init__(
        self,
        service,
        *,
        directory: Optional[str] = None,
        sync: str = SYNC_GROUP,
        faults=None,
    ):
        self.service = service
        self.directory = directory or service.directory
        if self.directory is None:
            raise StorageError(
                f"store {service.host!r} has no persistence directory; "
                "durability needs one"
            )
        self.sync = sync
        self.faults = faults
        self.wal: Optional[WriteAheadLog] = None
        self.generation = 0
        #: This opening's number, one above the manifest's ``Boot``: the
        #: store's key and salt nonces start from it, so no restart
        #: repeats them.
        self.boot = 0
        #: The epoch the journal follows (the manifest's); None: it cannot vouch.
        self.epoch: Optional[int] = None
        self.member = False  # a replica-set member (:meth:`join`)
        self.manifest: Optional[dict] = None  # the last written; None: corrupt
        self.recovery_report: Optional[RecoveryReport] = None
        self.obs = service.network.obs
        m = self.obs.metrics
        host = service.host
        self._c_appends = m.counter("wal_appends_total", store=host)
        self._c_commits = m.counter("wal_commits_total", store=host)
        self._c_checkpoints = m.counter("checkpoints_total", store=host)
        m.gauge(
            "wal_size_bytes",
            callback=lambda: self.wal.size_bytes() if self.wal is not None else 0,
            store=host,
        )
        m.gauge(
            "wal_io_seconds",
            callback=lambda: self.wal.io_seconds if self.wal is not None else 0.0,
            store=host,
        )
        m.gauge(
            "replication_applied_lsn",
            callback=lambda: (service.position() or {"Lsn": -1})["Lsn"],
            store=host,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def open(self) -> RecoveryReport:
        """Recover from disk, then start journaling every mutation."""
        report = recover_service(self.service, self.directory, obs=self.obs)
        self.generation = report.generation
        self.recovery_report = report
        self.boot = report.boot + 1
        # A manifest from before ``Member`` existed marks a member by its Epoch.
        self.member = bool({"Member", "Epoch"} & set(report.manifest or {}))
        if report.manifest is not None:  # a corrupt one waits for the next checkpoint
            self._write_manifest({**report.manifest, "Boot": self.boot})
        # Damage, or a fail-closed deny journaled below, is no position.
        self.epoch = report.epoch if report.clean else None
        os.makedirs(self.directory, exist_ok=True)
        # recover_service read the log once and repaired it: reopen at the
        # end that pass verified, unless the file is not exactly that prefix.
        # Seed the LSN from the manifest too — after a checkpoint reset the
        # file alone says next_lsn=1, and every post-restart mutation would
        # then be numbered at or below CheckpointLsn and silently skipped by
        # the replay filter on the *next* recovery (a committed rule change
        # lost without any corruption signal).
        end = report.wal_end
        size = os.path.getsize(end.path) if os.path.exists(end.path) else 0
        if size != end.good_bytes:
            raise CorruptRecordError(
                f"WAL {end.path!r} still damaged after recovery "
                f"({size} bytes on disk, {end.good_bytes} verified)"
            )
        self.wal = WriteAheadLog(
            end.path,
            sync=self.sync,
            faults=self.faults,
            resume=replace(end, next_lsn=max(end.next_lsn, report.checkpoint_lsn + 1)),
        )
        # Journal the fail-closed deny state itself (the sweep ran before
        # the log was open): a second crash before the next checkpoint
        # must recover to *deny*, not to the damage.
        for contributor in report.fail_closed:
            self.journal(OP_RULES, self.service.rules.snapshot(contributor).to_json())
        self._attach()
        if report.epoch is not None and self.epoch is None:
            self.checkpoint()  # a later, clean restart must not name the epoch
        return report

    def _attach(self) -> None:
        service = self.service
        service.rules.on_change(
            lambda snapshot: self.journal(OP_RULES, snapshot.to_json())
        )
        service.store.on_persist.append(self._journal_segments)
        service.store.on_unpersist.append(
            lambda segment: self.journal(
                OP_SEGMENT_DELETE, {"SegmentId": segment.segment_id}
            )
        )
        service.audit.on_append(
            lambda record: self.journal(OP_AUDIT, record.to_json())
        )

    def _journal_segments(self, segments: list) -> None:
        """One segment batch record per contributor among ``segments`` (what
        one upload, flush or compaction stored), in first-stored order."""
        by_contributor: dict = {}
        for segment in segments:
            by_contributor.setdefault(segment.contributor, []).append(segment)
        for run in by_contributor.values():
            self.journal(OP_SEGMENT_BATCH, segment_batch(run))

    def close(self) -> None:
        """Close the WAL; journaling stops until open() runs again."""
        if self.wal is not None:
            self.wal.close()
            self.wal = None

    # ------------------------------------------------------------------
    # Journaling
    # ------------------------------------------------------------------

    def journal(
        self, op: str, data: dict, *, own: bool = True, payload: Optional[bytes] = None
    ) -> Optional[int]:
        """Append one record with its op's sync class; returns its LSN.

        The only WAL append that picks a sync class.  ``own=False`` marks
        a record this store re-journals for another (a shipped frame, a
        migration batch): as durable, but ``wal_appends_total`` counts
        only the mutations a store itself accepted.  ``payload`` is the
        record's verified encoding, when the caller holds it (see
        :meth:`WriteAheadLog.append`).
        """
        if self.wal is None:  # recovery replay phase, or closed
            return None
        lsn = self.wal.append(op, data, force_sync=op in CONTROL_OPS, payload=payload)
        if own:
            self._c_appends.inc()
            if self.service._applier is not None:  # its primary's next LSN is taken
                self.service._applier.journaled_own(lsn)
        return lsn

    def commit(self) -> None:
        """Group-commit barrier: everything journaled so far becomes durable.

        The service calls this from barrier-bearing requests (``flush``,
        ``delete``) and before every checkpoint, so those acks imply the
        journal entries are on disk; plain uploads ride the group window.
        """
        if self.wal is not None:
            self.wal.commit()
            self._c_commits.inc()

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------

    def join(self, epoch: Optional[int] = None) -> None:
        """Record set membership (``Member``: the store reopens as a replica) and a
        promotion's ``epoch`` in the manifest, keeping the log (a corrupt one: a checkpoint)."""
        epoch = self.epoch if epoch is None else epoch
        if not self.member or epoch != self.epoch:
            self.member, self.epoch = True, epoch
            if self.manifest is None:
                self.checkpoint()
            else:
                self._write_manifest({**self.manifest, "Member": True,
                                      **({} if epoch is None else {"Epoch": epoch})})

    def _write_manifest(self, manifest: dict, *, faults=None) -> None:
        """Replace the manifest atomically (a checkpoint's, or the one
        :meth:`open` or :meth:`join` carries forward with a field changed)."""
        self.manifest = manifest
        host = self.service.host
        atomic_write_bytes(
            manifest_path(self.directory, host),
            (jsonutil.canonical_dumps({"Host": host, **manifest}) + "\n").encode("utf-8"),
            faults=faults,
            point="checkpoint.manifest",
        )

    def checkpoint(self, *, lsn: Optional[int] = None, epoch: Optional[int] = None) -> dict:
        """Snapshot state atomically, write the manifest, reset the WAL.

        ``lsn``/``epoch`` name the position (by default the WAL's end, the
        epoch on record): the manifest records them; the WAL takes lsn + 1.

        Interior crash states and why each recovers:

        * during a snapshot file write — temp file torn, live file intact;
          old manifest still matches old files; WAL still covers the delta;
        * after snapshots, before the manifest rename — files are new but
          the old manifest's checksums no longer match: recovery
          quarantines per the matrix and the WAL replay re-applies (rule
          replay is version-monotonic, segment replay idempotent);
        * after the manifest rename, before the WAL reset — manifest's
          CheckpointLsn makes the replay skip everything the snapshot
          already contains.
        * an ``lsn`` below the log's end empties the log first, or a replay
          under the new manifest would put that tail over the new records.
        """
        if self.wal is None:
            raise StorageError("durability not opened; call open() first")
        faults = self.faults
        if faults is not None:
            faults.at_point("checkpoint.pre_snapshot")
        # Flush the optimizer first: finalized segments journal now, below
        # the LSN the manifest will claim to cover.
        self.service.store.flush()
        self.wal.commit()
        lsn = self.wal.last_lsn if lsn is None else lsn
        if lsn < self.wal.last_lsn:
            self.wal.reset()
        epoch = self.epoch if epoch is None else epoch
        paths = write_snapshot(self.service, self.directory, faults=faults)
        manifest = {
            "Host": self.service.host,
            "Boot": self.boot,
            "Generation": self.generation + 1,
            "CheckpointLsn": lsn,
            **({} if epoch is None else {"Epoch": epoch}),
            **({"Member": True} if self.member else {}),
            "Files": {
                os.path.basename(path): file_sha256(path) for path in paths
            },
        }
        self._write_manifest(manifest, faults=faults)
        self.generation += 1
        self.epoch = epoch
        if faults is not None:
            faults.at_point("checkpoint.pre_wal_reset")
        self.wal.reset(lsn)
        if faults is not None:
            faults.at_point("checkpoint.done")
        self._c_checkpoints.inc()
        return manifest
