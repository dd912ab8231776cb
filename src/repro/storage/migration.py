"""Contributor migration primitives: the WAL as the shard transfer log.

A shard split moves a *contributor range* from a source store to a
destination store while both keep serving.  The mechanics reuse the PR 6
replication machinery end to end, restricted to the moving contributors:

* :func:`repro.storage.records.dump` restricted to the moving
  contributors — the snapshot bootstrap: roles (so the destination
  recognizes the contributor principal), segments, the rule snapshot
  (with its version — the thing cutover verification checks), labeled
  places, and the audit trail (data ownership includes the access
  history; it must move with the data).  The same walk a resyncing
  replica's bootstrap takes, filtered.
* :func:`wal_records_since` — the catch-up log: frames appended to the
  source's WAL since a given LSN, CRC/chain-verified by
  :func:`repro.storage.replication.read_wal_frames`, decoded and
  filtered down to ops that concern the moving contributors.  Writes
  that race the bootstrap are drained by re-running this with a higher
  ``from_lsn`` until the delta is empty — and once the source is fenced,
  one final pass picks up everything that committed before the fence,
  which is what makes cutover lose nothing.
* :func:`install_records` — the destination-side apply: every record
  goes through :func:`repro.storage.records.apply` (the only code path
  trusted to mutate state from a log), which re-journals it into the
  destination's own WAL, so a destination crash after cutover recovers
  the migrated contributors like any native ones.

Every record kind is idempotent or last-wins (rule snapshots carry
versions, segments dedupe by id, audit dedupes per seq), so overlapping
bootstrap + catch-up rounds converge instead of double-applying — the
same property replica resync already relies on.

Sources that are not durable have no WAL to tail; for them the catch-up
"delta" degrades to a fresh full snapshot, which the same idempotency
makes safe (just more bytes).  The coordinator in
:mod:`repro.broker.rebalance` drives the phases and the privacy
fail-closed verification at cutover.
"""

from __future__ import annotations

from repro.storage.records import OP_SEGMENT_DELETE, apply, record_owner
from repro.storage.replication import read_wal_frames
from repro.storage.wal import decode_frame
from repro.util import jsonutil


def record_concerns(op: str, data: dict, contributors) -> bool:
    """Does one record belong to any of the moving contributors?

    Segment deletions carry only a segment id, whose owner the
    *destination* resolves: ``remove_segment`` of an id it never saw is a
    no-op, so shipping every deletion is safe and shipping none would
    resurrect deleted data — deletions always travel.
    """
    if op == OP_SEGMENT_DELETE:
        return True
    return record_owner(op, data) in contributors


def wal_records_since(service, from_lsn: int, contributors) -> tuple:
    """``(records, last_lsn, complete)``: the filtered WAL tail above ``from_lsn``.

    ``complete`` is False when the WAL cannot prove it covers everything
    above ``from_lsn`` — the store is not durable, or a checkpoint
    truncated the log past the requested base.  The caller must then fall
    back to a full :func:`repro.storage.records.dump` snapshot
    (idempotent, so re-applying over the partial state is safe).
    """
    durability = getattr(service, "durability", None)
    if durability is None or durability.wal is None:
        return [], 0, False
    wal = durability.wal
    wal.commit()  # export only bytes that are truly on disk
    base = durability.checkpoint_lsn
    if from_lsn and from_lsn < base:
        # The frames below `base` were truncated by a checkpoint; the tail
        # alone cannot reach back to from_lsn.
        return [], wal.last_lsn, False
    moving = set(contributors)
    records = []
    for lsn, frame, chain_prev in read_wal_frames(wal.path):
        if lsn <= from_lsn:
            continue
        _lsn, _chain, payload = decode_frame(frame, chain_prev=chain_prev)
        obj = jsonutil.loads(payload.decode("utf-8"))
        op = str(obj.get("Op", ""))
        data = obj.get("Data", {})
        if record_concerns(op, data, moving):
            records.append((op, data))
    return records, wal.last_lsn, True


def install_records(service, records) -> dict:
    """Install migration records on the destination.

    Returns ``{"Installed": n, "RuleVersions": {contributor: version}}``
    for the contributors the batch touched — the coordinator compares
    those versions against the broker mirror at cutover.
    """
    touched: set = set()
    installed = 0
    for op, data in records:
        op = str(op)
        apply(service, op, data, journal=True)
        touched.add(record_owner(op, data))
        installed += 1
    return {
        "Installed": installed,
        "RuleVersions": {
            name: service.rules.version_of(name)
            for name in sorted(touched)
            if name in service.rules.contributors()
        },
    }
