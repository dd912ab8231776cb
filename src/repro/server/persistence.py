"""Durable state for a remote data store service.

The segment store already persists wave segments through the embedded
database; a real deployment must also survive restarts without losing
privacy rules, labeled places, registered principals, or the audit trail
— losing a *rule* would silently widen sharing, the worst failure mode a
privacy system can have.  This module snapshots and restores the full
service state as JSON-lines files alongside the segment data.

Restore-order note: rules are loaded with listeners detached so that a
reload does not re-fire broker sync pushes for state the broker already
has.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.exceptions import CorruptRecordError, SchemaError, StorageError
from repro.rules.parser import rules_to_json
from repro.server.audit import AuditRecord
from repro.storage.atomic import atomic_write_jsonl
from repro.util import jsonutil
from repro.util.geo import LabeledPlace


def _path(directory: str, host: str, kind: str) -> str:
    return os.path.join(directory, f"{host}.{kind}.jsonl")


def _write_lines(path: str, objects, *, faults=None) -> None:
    """Atomically replace ``path`` (temp + fsync + rename, never in place)."""
    atomic_write_jsonl(path, objects, faults=faults)


def _read_lines(path: str) -> list:
    """Parse a JSON-lines snapshot; a malformed line is an error, not a skip.

    Silently dropping a line here could drop a privacy *rule*, silently
    widening sharing.  Strict loads raise
    :class:`~repro.exceptions.CorruptRecordError` naming the file and
    line; the recovery path (:mod:`repro.storage.recovery`) instead
    quarantines bad lines and fails closed for rules.
    """
    if not os.path.exists(path):
        return []
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(jsonutil.loads(line))
            except SchemaError as exc:
                raise CorruptRecordError(
                    f"{path}:{lineno}: corrupt snapshot line: {exc}"
                ) from exc
    return out


def save_service_state(service, directory: Optional[str] = None, *, faults=None) -> list:
    """Persist a DataStoreService's full state; returns written paths."""
    directory = directory or service.store.db.directory
    if directory is None:
        raise StorageError(
            f"store {service.host!r} has no persistence directory configured"
        )
    paths = service.store.save(faults=faults)

    rules_rows = []
    for contributor in service.rules.contributors():
        snapshot = service.rules.snapshot(contributor)
        rules_rows.append(snapshot.to_json())
    path = _path(directory, service.host, "rules")
    _write_lines(path, rules_rows, faults=faults)
    paths.append(path)

    places_rows = [
        {
            "Contributor": contributor,
            "Places": [p.to_json() for p in places.values()],
        }
        for contributor, places in sorted(service.places.items())
    ]
    path = _path(directory, service.host, "places")
    _write_lines(path, places_rows, faults=faults)
    paths.append(path)

    roles_rows = [
        {"Principal": principal, "Role": role}
        for principal, role in sorted(service.roles.items())
    ]
    path = _path(directory, service.host, "roles")
    _write_lines(path, roles_rows, faults=faults)
    paths.append(path)

    audit_rows = []
    for contributor in service.rules.contributors():
        audit_rows.extend(r.to_json() for r in service.audit.trail_of(contributor))
    path = _path(directory, service.host, "audit")
    _write_lines(path, audit_rows, faults=faults)
    paths.append(path)
    return paths


def load_service_state(service, directory: Optional[str] = None) -> dict:
    """Restore a DataStoreService's state; returns per-kind counts.

    Principals' API keys are *not* restored — keys are re-issued after a
    restart (a deliberate rotation; stale clients re-register through the
    broker escrow), matching the advice that key material should not sit
    in the same snapshot as the data it protects.
    """
    from repro.rules.rulestore import RuleSetSnapshot

    directory = directory or service.store.db.directory
    if directory is None:
        raise StorageError(
            f"store {service.host!r} has no persistence directory configured"
        )
    counts = {"segments": service.store.load(), "rules": 0, "places": 0, "roles": 0,
              "audit": 0}

    # Rules: restore without firing sync listeners (the broker already
    # knows this state).
    for obj in _read_lines(_path(directory, service.host, "rules")):
        snapshot = RuleSetSnapshot.from_json(obj)
        service.rules.register(snapshot.contributor)
        service.rules.restore(snapshot.contributor, snapshot.rules, snapshot.version)
        counts["rules"] += len(snapshot.rules)

    for obj in _read_lines(_path(directory, service.host, "places")):
        places = {
            place.label: place
            for place in (LabeledPlace.from_json(p) for p in obj.get("Places", []))
        }
        service.places[str(obj["Contributor"])] = places
        counts["places"] += len(places)

    for obj in _read_lines(_path(directory, service.host, "roles")):
        service.roles[str(obj["Principal"])] = str(obj["Role"])
        counts["roles"] += 1

    counts["audit"] = service.audit.restore(
        AuditRecord.from_json(obj)
        for obj in _read_lines(_path(directory, service.host, "audit"))
    )
    # Restored places/rules replace live state wholesale; decisions cached
    # and artifacts compiled against the pre-load state must not survive
    # it (places move no epoch, so a snapshot with no rule lines would
    # otherwise leave an artifact holding the old places' regions).
    service.invalidate_decisions("restore")
    return counts
