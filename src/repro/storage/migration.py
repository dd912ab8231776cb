"""Contributor migration primitives: the WAL as the shard transfer log.

A shard split moves a *contributor range* from a source store to a
destination store while both keep serving.  The mechanics reuse the PR 6
replication machinery end to end, restricted to the moving contributors:

* :func:`migration_records` — the snapshot bootstrap: the source's
  durable state for the moving contributors, shaped exactly like WAL
  payloads (the same ``(op, data)`` records
  :func:`repro.storage.replication.bootstrap_records` ships to a
  resyncing replica).
* :func:`wal_records_since` — the catch-up log: frames appended to the
  source's WAL since a given LSN, CRC/chain-verified by
  :func:`repro.storage.replication.read_wal_frames`, decoded and
  filtered down to ops that concern the moving contributors.  Writes
  that race the bootstrap are drained by re-running this with a higher
  ``from_lsn`` until the delta is empty — and once the source is fenced,
  one final pass picks up everything that committed before the fence,
  which is what makes cutover lose nothing.
* :func:`install_records` — the destination-side apply: every record
  goes through :func:`repro.storage.recovery._apply` (the only code path
  trusted to mutate state from a log) and is re-journaled into the
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

from repro.storage.replication import _CONTROL_OPS, read_wal_frames
from repro.util import jsonutil


def _record_contributor(op: str, data: dict) -> str:
    """The contributor one WAL-shaped record belongs to ('' = store-wide)."""
    from repro.storage.recovery import (
        OP_AUDIT,
        OP_PLACES,
        OP_ROLE,
        OP_RULES,
        OP_SEGMENT,
    )

    if op == OP_SEGMENT:
        return str(data.get("Contributor", ""))
    if op in (OP_RULES, OP_PLACES, OP_AUDIT):
        return str(data.get("Contributor", ""))
    if op == OP_ROLE:
        return str(data.get("Principal", ""))
    return ""


def record_concerns(op: str, data: dict, contributors) -> bool:
    """Does one record belong to any of the moving contributors?

    Segment deletions carry only a segment id, whose owner the
    *destination* resolves: ``remove_segment`` of an id it never saw is a
    no-op, so shipping every deletion is safe and shipping none would
    resurrect deleted data — deletions always travel.
    """
    from repro.storage.recovery import OP_SEGMENT_DELETE

    if op == OP_SEGMENT_DELETE:
        return True
    return _record_contributor(op, data) in contributors


def migration_records(service, contributors) -> list:
    """Snapshot bootstrap of the moving contributors, as ``(op, data)``.

    The per-contributor slice of
    :func:`repro.storage.replication.bootstrap_records`: roles (so the
    destination recognizes the contributor principal), segments, the
    rule snapshot (with its version — the thing cutover verification
    checks), labeled places, and the audit trail (data ownership
    includes the access history; it must move with the data).
    """
    from repro.storage.recovery import (
        OP_AUDIT,
        OP_PLACES,
        OP_ROLE,
        OP_RULES,
        OP_SEGMENT,
    )

    moving = set(contributors)
    records = []
    for principal, role in sorted(service.roles.items()):
        if principal in moving:
            records.append((OP_ROLE, {"Principal": principal, "Role": role}))
    store = service.store
    for contributor in sorted(moving):
        if contributor in store.contributors():
            for segment in store.segments_of(contributor):
                records.append((OP_SEGMENT, segment.to_json()))
        if contributor in service.rules.contributors():
            records.append(
                (OP_RULES, service.rules.snapshot(contributor).to_json())
            )
        places = service.places.get(contributor)
        if places is not None:
            records.append(
                (
                    OP_PLACES,
                    {
                        "Contributor": contributor,
                        "Places": [p.to_json() for p in places.values()],
                    },
                )
            )
        if contributor in service.audit.contributors():
            for record in service.audit.trail_of(contributor):
                records.append((OP_AUDIT, record.to_json()))
    return records


def wal_records_since(service, from_lsn: int, contributors) -> tuple:
    """``(records, last_lsn, complete)``: the filtered WAL tail above ``from_lsn``.

    ``complete`` is False when the WAL cannot prove it covers everything
    above ``from_lsn`` — the store is not durable, or a checkpoint
    truncated the log past the requested base.  The caller must then fall
    back to a full :func:`migration_records` snapshot (idempotent, so
    re-applying over the partial state is safe).
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
        from repro.storage.wal import decode_frame

        _lsn, _chain, payload = decode_frame(frame, chain_prev=chain_prev)
        obj = jsonutil.loads(payload.decode("utf-8"))
        op = str(obj.get("Op", ""))
        data = obj.get("Data", {})
        if record_concerns(op, data, moving):
            records.append((op, data))
    return records, wal.last_lsn, True


def install_records(service, records) -> dict:
    """Apply migration records on the destination through the recovery path.

    Mirrors :meth:`repro.storage.replication.ReplicaApplier._apply_op`:
    each record is applied via the recovery ``_apply`` (so migration can
    never install anything a crash recovery would refuse) and re-journaled
    into the destination's own WAL, control-plane ops force-synced.  The
    rule-decision and compiled-rule caches are dropped wholesale at the
    end: migrated places and rules move no local cache-key component.

    Returns ``{"Installed": n, "RuleVersions": {contributor: version}}``
    for the contributors the batch touched — the coordinator compares
    those versions against the broker mirror at cutover.
    """
    from repro.storage.recovery import OP_RULES, _apply

    touched: set = set()
    installed = 0
    for op, data in records:
        op = str(op)
        _apply(service, op, dict(data), set(), set())
        if service.durability is not None and service.durability.wal is not None:
            service.durability.wal.append(
                op, dict(data), force_sync=op in _CONTROL_OPS
            )
        owner = _record_contributor(op, data)
        if owner:
            touched.add(owner)
        installed += 1
        if op == OP_RULES:
            contributor = str(data.get("Contributor", ""))
            # Installed rules are the *owner's* current rules: they lift
            # any fail-closed deny a previous partial install left.
            if contributor and contributor in service.fail_closed:
                if service.rules.version_of(contributor):
                    service.fail_closed.discard(contributor)
                    service.network.obs.slo.fail_closed_cleared(
                        service.host, contributor
                    )
    if installed:
        service.invalidate_decisions("migration")
    return {
        "Installed": installed,
        "RuleVersions": {
            name: service.rules.version_of(name)
            for name in sorted(touched)
            if name in service.rules.contributors()
        },
    }
