"""Crash-safe durability: WAL, atomic snapshots, fault injection, recovery.

Losing a privacy *rule* silently widens sharing — the worst failure mode a
privacy system can have — so this package treats every byte of persisted
state as suspect until proven intact:

* :mod:`repro.storage.atomic` — temp + fsync + rename file replacement;
* :mod:`repro.storage.wal` — checksummed, length-prefixed, chained
  write-ahead log with torn-tail vs corruption classification;
* :mod:`repro.storage.faults` — deterministic, seeded crash/torn-write/
  bit-flip injection (the disk-side sibling of :mod:`repro.net.faults`);
* :mod:`repro.storage.records` — the store's log vocabulary: the six
  ``(op, data)`` record kinds, the one dumper and the one installer;
* :mod:`repro.storage.recovery` — replay + quarantine + fail-closed;
* :mod:`repro.storage.durability` — the manager wiring it into a service;
* :mod:`repro.storage.replication` — WAL shipping to replica stores with
  verify-then-replay application, one resync form and epoch fencing.
"""

from repro.storage.atomic import atomic_write_bytes, atomic_write_jsonl, file_sha256
from repro.storage.durability import Durability
from repro.storage.faults import CRASH_POINTS, StorageFaultPlan, StorageFaultRule
from repro.storage.replication import ReplicaApplier, WalShipper
from repro.storage.recovery import (
    RecoveryReport,
    manifest_path,
    quarantine_dir,
    recover_service,
    wal_path,
)
from repro.storage.wal import (
    GROUP_COMMIT_APPENDS,
    SYNC_ALWAYS,
    SYNC_GROUP,
    SYNC_NEVER,
    WalScan,
    WriteAheadLog,
    repair_wal,
    scan_wal,
)

__all__ = [
    "atomic_write_bytes",
    "atomic_write_jsonl",
    "file_sha256",
    "Durability",
    "CRASH_POINTS",
    "StorageFaultPlan",
    "StorageFaultRule",
    "ReplicaApplier",
    "WalShipper",
    "RecoveryReport",
    "manifest_path",
    "quarantine_dir",
    "recover_service",
    "wal_path",
    "GROUP_COMMIT_APPENDS",
    "SYNC_ALWAYS",
    "SYNC_GROUP",
    "SYNC_NEVER",
    "WalScan",
    "WriteAheadLog",
    "repair_wal",
    "scan_wal",
]
