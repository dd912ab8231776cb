"""Crash recovery: replay the WAL over the last good snapshot, fail closed.

Restart sequence for a durable :class:`~repro.server.datastore_service.
DataStoreService` (driven by :class:`~repro.storage.durability.Durability`):

1. read the checkpoint **manifest** (generation marker) and verify the
   SHA-256 of every snapshot file it lists;
2. load the snapshot state — every row through the one installer,
   :func:`repro.storage.records.apply` — routing undecodable lines and
   refused rows to **quarantine** (they are copied out and counted,
   never silently dropped);
3. replay write-ahead-log records with LSN above the manifest's
   checkpoint LSN, through the same installer, each as it is read and
   verified (the log is read once, a frame at a time);
4. repair the log: truncate a *torn tail* (the append that was in flight
   when the process died — never acknowledged, safe to cut), quarantine
   anything *corrupt* (checksum/chain/LSN breaks);
5. verify the audit trail's checksum chain;
6. **fail closed for rules**: when corruption touched anything that feeds
   rule semantics, affected contributors get an *empty* rule set with a
   bumped version (:func:`repro.storage.records.fail_close`) — the
   engine's default-deny means nothing flows until the owner
   re-publishes rules, and the bumped version propagates the deny state
   to the broker on the next sync.  A corrupt rule record may deny; it
   must never silently widen sharing.

The fail-closed trigger matrix (conservative by construction):

=====================================  =================================
Damage observed                        Consequence
=====================================  =================================
WAL torn tail                          truncate; benign (unacknowledged)
WAL corrupt frame / chain / LSN break  fail closed for ALL contributors
                                       (later rule updates may be lost)
rules or places snapshot untrusted     fail closed for affected
(checksum mismatch, missing, or any    contributors (places feed rule
line quarantined)                      semantics: a corrupt Deny place
                                       must not lapse)
segments / roles / audit damage        quarantine + alert; cannot widen
audit chain break                      alert (trail shortened/tampered)
=====================================  =================================

One exemption keeps a benign crash from raising a false alarm: rule and
place WAL records carry a contributor's *complete* state (not deltas), so
when the WAL itself is intact, a contributor whose latest rules — and,
if the places snapshot is also untrusted, places — were replayed from it
is fully trusted regardless of the snapshot's condition.  This is the
crash-inside-checkpoint window (snapshots rotated, manifest not yet):
the old manifest's checksums no longer match the new files, but every
changed state is still in the not-yet-reset WAL.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.exceptions import CorruptRecordError, SensorSafeError, StorageError
from repro.net import wire
from repro.obs import NOOP_OBS
from repro.storage.atomic import file_sha256
from repro.storage.records import (
    KNOWN_OPS,
    OP_AUDIT,
    OP_PLACES,
    OP_ROLE,
    OP_RULES,
    OP_SEGMENT,
    ROLE_CONTRIBUTOR,
    apply,
    fail_close,
    record_owner,
)
from repro.storage.wal import WalScan, read_wal, repair_wal
from repro.util import jsonutil


# ----------------------------------------------------------------------
# On-disk layout (shared with Durability; kept here so durability.py can
# import it without a cycle)
# ----------------------------------------------------------------------

#: Snapshot file kind -> the op whose ``data`` each of its rows is, in the
#: order the files are written and loaded.
SNAPSHOT_KINDS = (
    ("segments", OP_SEGMENT),
    ("rules", OP_RULES),
    ("places", OP_PLACES),
    ("roles", OP_ROLE),
    ("audit", OP_AUDIT),
)


#: Lost rows of these files cannot widen sharing: alert, don't deny.
_SNAPSHOT_ALERTS = {
    "segments": "segment record lost to corruption (quarantined)",
    "roles": "roles snapshot had corrupt lines (quarantined)",
    "audit": "audit snapshot had corrupt lines (quarantined); trail has gaps",
}


def snapshot_path(directory: str, host: str, kind: str) -> str:
    """Path of one host's snapshot file of one kind inside a store directory."""
    return os.path.join(directory, f"{host}.{kind}.jsonl")


def wal_path(directory: str, host: str) -> str:
    """Path of one host's write-ahead log inside a store directory."""
    return os.path.join(directory, f"{host}.wal")


def manifest_path(directory: str, host: str) -> str:
    """Path of one host's checkpoint manifest inside a store directory."""
    return os.path.join(directory, f"{host}.manifest.json")


def quarantine_dir(directory: str) -> str:
    """Directory where recovery preserves corrupt records and files."""
    return os.path.join(directory, "quarantine")


@dataclass
class RecoveryReport:
    """Everything a restarted store learned about its on-disk state."""

    host: str
    directory: str
    generation: int = 0
    manifest_found: bool = False
    #: LSN the checkpoint manifest covers; the reopened WAL must continue
    #: numbering *above* this, or post-restart appends would replay-filter
    #: as already-checkpointed (see :meth:`Durability.open`).
    checkpoint_lsn: int = 0
    #: The epoch the manifest says the journal follows (None: it names none).
    epoch: Optional[int] = None
    #: How many times the store has been opened, by the manifest's ``Boot``
    #: (0 when it has none: absent, corrupt, or written before it counted).
    boot: int = 0
    #: The manifest as read, ``{}`` when absent, None when corrupt: what
    #: :meth:`~repro.storage.durability.Durability.open` carries forward
    #: when it counts a boot.  Not part of the report's JSON.
    manifest: Optional[dict] = field(default=None, repr=False, compare=False)
    #: snapshot rows loaded per kind (segments/rules/places/roles/audit)
    loaded: dict = field(default_factory=dict)
    wal_records_replayed: int = 0
    wal_records_skipped: int = 0  # at or below the checkpoint LSN
    wal_torn_bytes: int = 0
    wal_corrupt: bool = False
    wal_corrupt_reason: str = ""
    quarantined_records: int = 0
    quarantined_files: list = field(default_factory=list)
    fail_closed: list = field(default_factory=list)
    audit_chain_breaks: dict = field(default_factory=dict)  # contributor -> seqs
    alerts: list = field(default_factory=list)
    #: The repaired log's end as the replay pass read it (``good_bytes``,
    #: ``chain``, ``next_lsn``): the WAL reopens there without a second
    #: read.  Not part of the report's JSON.
    wal_end: Optional[WalScan] = field(default=None, repr=False, compare=False)

    @property
    def clean(self) -> bool:
        """True when recovery found no damage of any kind."""
        return (
            not self.wal_corrupt
            and self.quarantined_records == 0
            and not self.quarantined_files
            and not self.fail_closed
            and not self.audit_chain_breaks
            and not self.alerts
        )

    def alert(self, message: str) -> None:
        """Record one human-readable recovery warning."""
        self.alerts.append(message)

    def to_json(self) -> dict:
        """JSON form of the report, for the CLI and tests."""
        return {
            "Host": self.host,
            "Directory": self.directory,
            "Generation": self.generation,
            "ManifestFound": self.manifest_found,
            "CheckpointLsn": self.checkpoint_lsn,
            "Loaded": dict(self.loaded),
            "WalReplayed": self.wal_records_replayed,
            "WalSkipped": self.wal_records_skipped,
            "WalTornBytes": self.wal_torn_bytes,
            "WalCorrupt": self.wal_corrupt,
            "WalCorruptReason": self.wal_corrupt_reason,
            "QuarantinedRecords": self.quarantined_records,
            "QuarantinedFiles": list(self.quarantined_files),
            "FailClosed": list(self.fail_closed),
            "AuditChainBreaks": {k: list(v) for k, v in self.audit_chain_breaks.items()},
            "Alerts": list(self.alerts),
            "Clean": self.clean,
        }

    def summary(self) -> str:
        """Multi-line human summary (the ``repro recover`` CLI output)."""
        lines = [
            f"recovery of {self.host!r} from {self.directory}",
            f"  generation {self.generation} "
            f"(manifest {'found' if self.manifest_found else 'absent'}, "
            f"checkpoint lsn {self.checkpoint_lsn})",
            "  loaded: "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.loaded.items())),
            f"  wal: {self.wal_records_replayed} replayed, "
            f"{self.wal_records_skipped} skipped, "
            f"{self.wal_torn_bytes} torn bytes truncated",
        ]
        if self.wal_corrupt:
            lines.append(f"  WAL CORRUPT: {self.wal_corrupt_reason}")
        if self.quarantined_records or self.quarantined_files:
            lines.append(
                f"  quarantined: {self.quarantined_records} records, "
                f"files: {', '.join(self.quarantined_files) or '-'}"
            )
        if self.fail_closed:
            lines.append(f"  FAIL-CLOSED (deny-by-default): {', '.join(self.fail_closed)}")
        for contributor, seqs in sorted(self.audit_chain_breaks.items()):
            lines.append(f"  audit chain break for {contributor!r} at seq {seqs}")
        for alert in self.alerts:
            lines.append(f"  ALERT: {alert}")
        if self.clean:
            lines.append("  clean: no damage detected")
        return "\n".join(lines)


class _Quarantine:
    """Copies suspect records/files aside and counts them."""

    def __init__(self, directory: str, report: RecoveryReport):
        self.directory = quarantine_dir(directory)
        self.report = report

    def record(self, source: str, lineno: int, line, reason: str) -> None:
        """Append one refused row (``str``) or WAL record (its payload, ``bytes``)."""
        os.makedirs(self.directory, exist_ok=True)
        path = os.path.join(self.directory, os.path.basename(source) + ".bad")
        raw = line if isinstance(line, bytes) else line.encode("utf-8")
        with open(path, "ab") as fh:
            fh.write(f"# line {lineno}: {reason}\n".encode("utf-8") + raw + b"\n")
        if path not in self.report.quarantined_files:
            self.report.quarantined_files.append(path)
        self.report.quarantined_records += 1

    def file(self, source: str, reason: str) -> None:
        """Move an untrusted file aside wholesale."""
        if not os.path.exists(source):
            self.report.alert(f"{source}: missing ({reason})")
            return
        os.makedirs(self.directory, exist_ok=True)
        target = os.path.join(self.directory, os.path.basename(source))
        os.replace(source, target)
        self.report.quarantined_files.append(target)
        self.report.alert(f"{source}: quarantined ({reason})")


def _read_manifest(path: str) -> Optional[dict]:
    if not os.path.exists(path):
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            obj = jsonutil.loads(fh.read())
        if not isinstance(obj, dict):
            raise StorageError("manifest is not a JSON object")
        return obj
    except SensorSafeError:
        return {"__corrupt__": True}


def _snapshot_lines(path: str) -> Iterator[tuple]:
    """``(lineno, line)`` of each non-blank line; an absent file has none."""
    if not os.path.exists(path):
        return
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line:
                yield lineno, line


def recover_service(service, directory: Optional[str] = None, *, obs=None) -> RecoveryReport:
    """Restore a DataStoreService from disk, tolerating and reporting damage.

    The only loader: it quarantines what it cannot read, replays the WAL,
    and fails closed for rules per the module-docstring matrix.  On an
    undamaged directory — with or without a manifest and a WAL — that is
    a plain reload.  Principals' API keys are *not* restored: keys are
    re-issued after a restart (a deliberate rotation; the broker
    re-enrolls consumers and escrows their new keys), so key material never sits in
    the same snapshot as the data it protects.  Rules install through
    ``restore``, which fires no sync listeners: the broker already has
    this state.
    """
    directory = directory or service.directory
    if directory is None:
        raise StorageError(
            f"store {service.host!r} has no persistence directory configured"
        )
    host = service.host
    report = RecoveryReport(host=host, directory=directory)
    quarantine = _Quarantine(directory, report)
    # Three untrust flags feed the fail-closed sweep at the end.  They are
    # kept separate because the WAL-replay exemption (module docstring)
    # needs to know *which* side is damaged: an intact WAL can vouch for a
    # contributor against snapshot damage, but not the other way around.
    rules_untrusted = False  # rules snapshot (or manifest) is suspect
    places_untrusted = False  # places snapshot (or manifest) is suspect
    wal_untrusted = False  # the WAL itself is corrupt or unreadable

    # ------------------------------------------------------------------
    # 1. Manifest: the generation marker written by the last checkpoint.
    # ------------------------------------------------------------------
    manifest = _read_manifest(manifest_path(directory, host))
    checkpoint_lsn = 0
    report.manifest = {} if manifest is None else manifest
    if manifest is not None and "__corrupt__" in manifest:
        report.alert("checkpoint manifest is corrupt; treating snapshots as untrusted")
        rules_untrusted = True
        places_untrusted = True
        manifest = report.manifest = None
    if manifest is not None:
        report.manifest_found = True
        report.boot = int(manifest.get("Boot", 0))
        report.generation = int(manifest.get("Generation", 0))
        checkpoint_lsn = int(manifest.get("CheckpointLsn", 0))
        report.checkpoint_lsn = checkpoint_lsn
        report.epoch = int(manifest["Epoch"]) if "Epoch" in manifest else None
        for name, expected in sorted(dict(manifest.get("Files", {})).items()):
            path = os.path.join(directory, name)
            actual = file_sha256(path)
            if actual == expected:
                continue
            reason = "checksum mismatch vs manifest" if actual else "listed in manifest"
            kind = name.rsplit(".", 2)[-2] if "." in name else name
            if kind in ("rules", "places"):
                # Feeds rule semantics: a JSON-parseable bit flip (a place
                # boundary, a consumer name) is undetectable per line, so
                # the whole file is untrusted and contributors fail closed
                # unless the intact WAL replays their state below.
                if kind == "rules":
                    rules_untrusted = True
                else:
                    places_untrusted = True
                quarantine.file(path, reason)
            else:
                # Data-plane damage cannot widen sharing; load what still
                # parses (bad lines quarantine below, audit tampering is
                # caught by the chain verification) and alert.
                report.alert(f"{path}: {reason}")

    # ------------------------------------------------------------------
    # 2. Snapshot state, loaded tolerantly.
    # ------------------------------------------------------------------
    # A snapshot row is the ``data`` of a record of its file's op, so every
    # file of every kind loads through the one installer, a row at a time
    # (a segments file is never held in memory whole).  A line that will
    # not parse and a row the installer refuses are the same damage: the
    # line quarantines, and the file alerts — or, for rules and places,
    # which feed rule semantics, is marked untrusted as a whole.
    counts = {}
    for kind, op in SNAPSHOT_KINDS:
        path = snapshot_path(directory, host, kind)
        counts[kind] = 0
        damaged = False
        for lineno, line in _snapshot_lines(path):
            try:
                row = jsonutil.loads(line)
                if not isinstance(row, dict):
                    raise CorruptRecordError("snapshot row is not a JSON object")
                counts[kind] += apply(
                    service, op, row, journal=False, rules_trusted=not rules_untrusted
                )
            except (SensorSafeError, KeyError, TypeError, ValueError) as exc:
                quarantine.record(path, lineno, line, str(exc))
                damaged = True
        if damaged and kind in _SNAPSHOT_ALERTS:
            report.alert(_SNAPSHOT_ALERTS[kind])
        if kind == "rules":
            rules_untrusted = rules_untrusted or damaged
        elif kind == "places":
            places_untrusted = places_untrusted or damaged
    report.loaded = counts

    # The fail-closed exemption (module docstring) is granted ONLY by WAL
    # replay: a contributor lands in these sets when the intact log carries
    # their complete state.  Snapshot loads never populate them — a
    # checksum-unverifiable snapshot (corrupt or absent manifest) can parse
    # cleanly yet carry a flipped bit that widens sharing.
    wal_clean_rules: set = set()
    wal_clean_places: set = set()

    # ------------------------------------------------------------------
    # 3 + 4. WAL: replay past the checkpoint LSN as it reads, then repair.
    # ------------------------------------------------------------------
    # Each verified frame is applied as the reader yields it, so neither the
    # file nor its records are held whole.  A record that fails to apply is
    # kept aside and quarantined after the scan, so the report reads as if
    # the log's damage were known first: the corruption, then each record.
    scan = WalScan(path=wal_path(directory, host))
    refused = []
    for lsn, op, data in read_wal(scan):
        if lsn <= checkpoint_lsn:
            report.wal_records_skipped += 1
            continue
        try:
            apply(service, op, data, journal=False, rules_trusted=not rules_untrusted)
        except SensorSafeError as exc:
            refused.append((lsn, op, data, exc))
            continue
        report.wal_records_replayed += 1
        # Rule and place records carry complete state, so replaying one
        # vouches for its contributor whether or not its version won.
        if op == OP_RULES:
            wal_clean_rules.add(record_owner(op, data))
        elif op == OP_PLACES:
            wal_clean_places.add(record_owner(op, data))
    report.wal_torn_bytes = scan.torn_bytes
    if scan.corrupt:
        report.wal_corrupt = True
        report.wal_corrupt_reason = scan.corrupt_reason
        wal_untrusted = True  # rule updates after the break are lost
        report.alert(f"WAL corrupt at offset {scan.corrupt_offset}: {scan.corrupt_reason}")
    qpath = repair_wal(scan, quarantine_dir=quarantine_dir(directory))
    if qpath is not None:
        report.quarantined_files.append(qpath)
        report.quarantined_records += 1
    report.wal_end = scan
    for lsn, op, data, exc in refused:
        # The record's wire form: a segment's samples are raw bytes in it.
        quarantine.record(scan.path, lsn, wire.encode({"Op": op, "Data": data}), str(exc))
        if op in (OP_RULES, OP_PLACES) or op not in KNOWN_OPS:
            wal_untrusted = True
        report.alert(f"WAL record lsn={lsn} op={op!r} failed to apply: {exc}")

    # ------------------------------------------------------------------
    # 5. Audit chain verification.
    # ------------------------------------------------------------------
    for contributor in service.audit.contributors():
        breaks = service.audit.verify_chain(contributor)
        if breaks:
            report.audit_chain_breaks[contributor] = breaks
            report.alert(
                f"audit trail for {contributor!r} breaks its checksum chain at "
                f"seq {breaks} — records were lost or altered"
            )

    # ------------------------------------------------------------------
    # 6. Fail closed for rules.
    # ------------------------------------------------------------------
    if rules_untrusted or places_untrusted or wal_untrusted:
        for contributor in _known_contributors(service, scan.suspect):
            if (
                not wal_untrusted
                and (not rules_untrusted or contributor in wal_clean_rules)
                and (not places_untrusted or contributor in wal_clean_places)
            ):
                # Their complete rule (and, where needed, place) state was
                # replayed from the intact WAL — the snapshot damage is a
                # crash-inside-checkpoint artifact, not lost semantics.
                continue
            fail_close(service, contributor, service.rules.version_of(contributor) + 1)
            report.fail_closed.append(contributor)
        report.fail_closed.sort()
        if report.fail_closed:
            report.alert(
                "rule state untrusted: denying by default for "
                + ", ".join(report.fail_closed)
                + " until rules are re-published"
            )

    m = (obs or NOOP_OBS).metrics
    m.counter("recovery_runs_total").inc()
    m.counter("recovery_replayed_total").inc(report.wal_records_replayed)
    m.counter("records_quarantined_total").inc(report.quarantined_records)
    m.counter("fail_closed_total").inc(len(report.fail_closed))
    m.counter("recovery_torn_bytes_total").inc(report.wal_torn_bytes)
    return report


def _known_contributors(service, suspect) -> list:
    """Every contributor this store has any trace of, from every source,
    the records past a WAL corruption (``suspect``) included."""
    names = {record_owner(op, data) for op, data in suspect if op != OP_ROLE}
    names.update(
        service.rules.contributors(),
        service.places,
        service.store.contributors(),
        service.audit.contributors(),
        (principal for principal, role in service.roles.items() if role == ROLE_CONTRIBUTOR),
    )
    return sorted(names - {""})
