"""Access audit trail for remote data stores.

The Personal Data Vault work the paper builds on pairs fine-grained access
control with a *trace audit* so owners can see who accessed what; the
paper's future-work section promises security mechanisms in the same
spirit.  This module gives every remote data store an append-only audit
log: one record per query-API access, capturing who asked, what they asked
for, and what the rule engine actually let out (including what was
withheld and why).  Owners read their own trail through the audit API.

Integrity: each record carries a **checksum chain** value — the SHA-256 of
the previous record's chain value plus this record's canonical content.
A trail with records removed (a torn persistence tail, or tampering)
stops chaining at the gap, so :meth:`AuditLog.verify_chain` detects a
shorter, plausible-looking trail instead of trusting it.  Records
persisted before chaining existed verify as "legacy" rather than broken.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional

from repro.datastore.cache import ReleaseSummary
from repro.util import jsonutil


@dataclass(frozen=True)
class AuditRecord:
    """One access to one contributor's data."""

    seq: int
    at_ms: int  # logical time: the store's access counter is monotonic
    principal: str
    contributor: str
    query: dict
    raw_access: bool  # owner reading their own data
    segments_scanned: int
    pieces_released: int
    samples_released: int
    labels_released: tuple  # sorted category names that flowed
    withheld: dict  # channel -> reason (aggregated across pieces)
    trace_id: str = ""  # request trace tree this access belongs to
    chain: str = ""  # checksum chain value ("" on pre-chain records)

    def core_json(self) -> dict:
        """The chained content: everything except the chain value itself."""
        return {
            "Seq": self.seq,
            "At": self.at_ms,
            "Principal": self.principal,
            "Contributor": self.contributor,
            "Query": dict(self.query),
            "RawAccess": self.raw_access,
            "SegmentsScanned": self.segments_scanned,
            "PiecesReleased": self.pieces_released,
            "SamplesReleased": self.samples_released,
            "LabelsReleased": list(self.labels_released),
            "Withheld": dict(self.withheld),
            "TraceId": self.trace_id,
        }

    def to_json(self) -> dict:
        out = self.core_json()
        out["Chain"] = self.chain
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "AuditRecord":
        return cls(
            seq=int(obj["Seq"]),
            at_ms=int(obj["At"]),
            principal=str(obj["Principal"]),
            contributor=str(obj["Contributor"]),
            query=dict(obj.get("Query", {})),
            raw_access=bool(obj.get("RawAccess", False)),
            segments_scanned=int(obj.get("SegmentsScanned", 0)),
            pieces_released=int(obj.get("PiecesReleased", 0)),
            samples_released=int(obj.get("SamplesReleased", 0)),
            labels_released=tuple(obj.get("LabelsReleased", ())),
            withheld=dict(obj.get("Withheld", {})),
            trace_id=str(obj.get("TraceId", "")),  # absent in pre-trace records
            chain=str(obj.get("Chain", "")),  # absent in pre-chain records
        )


def chain_value(prev_chain: str, record: AuditRecord) -> str:
    """The chain hash linking ``record`` to its predecessor's chain."""
    material = prev_chain + jsonutil.canonical_dumps(record.core_json())
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


class AuditLog:
    """Per-contributor append-only access trail with a checksum chain."""

    def __init__(self) -> None:
        self._records: dict[str, list] = {}
        #: contributor -> the seqs its trail holds, so a restore tests a
        #: record's presence without scanning the trail.
        self._seqs: dict[str, set] = {}
        self._next_seq = 1
        #: Durability hooks fired with each freshly appended record (the
        #: write-ahead log journals the trail through these); restores do
        #: not fire them.
        self._listeners: list[Callable[[AuditRecord], None]] = []

    def on_append(self, listener: Callable[[AuditRecord], None]) -> None:
        self._listeners.append(listener)

    def record_access(
        self,
        *,
        principal: str,
        contributor: str,
        query: dict,
        raw_access: bool,
        segments_scanned: int,
        summary: ReleaseSummary = ReleaseSummary(),
        trace_id: str = "",
    ) -> AuditRecord:
        """Log one query-API access; ``summary`` totals what was released."""
        seq = self._next_seq
        self._next_seq += 1
        record = AuditRecord(
            seq=seq,
            at_ms=seq,  # logical clock; wall time is not simulated
            principal=principal,
            contributor=contributor,
            query=dict(query),
            raw_access=raw_access,
            segments_scanned=segments_scanned,
            pieces_released=summary.pieces,
            samples_released=summary.samples,
            labels_released=summary.labels,
            withheld=dict(summary.withheld),
            trace_id=trace_id,
        )
        trail = self._records.setdefault(contributor, [])
        prev = trail[-1].chain if trail else ""
        record = replace(record, chain=chain_value(prev, record))
        trail.append(record)
        self._seqs.setdefault(contributor, set()).add(seq)
        for listener in self._listeners:
            listener(record)
        return record

    def restore(self, records: Iterable[AuditRecord]) -> int:
        """Re-install persisted records, advancing the sequence counter.

        Idempotent per (contributor, seq): crash recovery replays WAL
        records over a snapshot that may already contain them (a crash
        between snapshot rotation and the manifest commit), and a
        duplicate trail entry would falsely break the checksum chain.

        The counter only ever ratchets upward: recovery calls this once
        for the snapshot trail and then once per replayed WAL record, and
        a replayed *older* record (e.g. after a torn WAL tail cut the
        newest frames) must not regress the counter into seq numbers the
        trail already holds — reused (contributor, seq) keys would make a
        later restore silently drop legitimate records as duplicates.
        """
        count = 0
        max_seq = 0
        for record in records:
            max_seq = max(max_seq, record.seq)
            seqs = self._seqs.setdefault(record.contributor, set())
            if record.seq in seqs:
                continue
            seqs.add(record.seq)
            self._records.setdefault(record.contributor, []).append(record)
            count += 1
        self._next_seq = max(self._next_seq, max_seq + 1)
        return count

    def verify_chain(self, contributor: str) -> list:
        """Sequence numbers whose chain value does not link to its trail.

        An empty list means the trail is intact end to end.  Records with
        an empty chain (persisted before chaining existed) are treated as
        legacy and skipped — the chain restarts at the next record.
        """
        breaks = []
        prev = ""
        for record in self._records.get(contributor, []):
            if not record.chain:  # legacy record: unverifiable, restart chain
                prev = ""
                continue
            if record.chain != chain_value(prev, record):
                breaks.append(record.seq)
            prev = record.chain
        return breaks

    def contributors(self) -> list:
        return sorted(self._records)

    def trail_of(self, contributor: str, *, limit: Optional[int] = None) -> list:
        """The contributor's records, oldest first."""
        records = self._records.get(contributor, [])
        if limit is not None:
            return records[-limit:]
        return list(records)

    def accesses_by(self, contributor: str, principal: str) -> list:
        return [r for r in self._records.get(contributor, []) if r.principal == principal]

    def summary(self, contributor: str) -> dict:
        """Per-consumer aggregate: accesses and samples taken."""
        out: dict = {}
        for record in self._records.get(contributor, []):
            entry = out.setdefault(
                record.principal, {"accesses": 0, "samples": 0, "raw": 0}
            )
            entry["accesses"] += 1
            entry["samples"] += record.samples_released
            entry["raw"] += record.raw_access
        return out
