"""The store's log vocabulary: seven record kinds, one dumper, one installer.

Everything a data store must not lose — segments, privacy rules, labeled
places, principal roles (a consumer's groups and a contributor's
password hash ride its role; a contributor migrated away is fenced by a
``moved`` role), the audit trail — travels as ``(op, data)``
records: WAL payloads, snapshot rows, shipped replica frames, resync
bootstraps and migration batches are all the same shapes.  The journal
writes the segments one request stored as one **segment batch**
(:func:`segment_batch`, parsed by :func:`batch_segments` alone): one
record, one frame, one ship and one replica decode an upload.  Snapshot
rows, :func:`dump`, resync bootstraps and migration batches keep one
``segment`` record a segment, and a log written before batches (or a
migration install) holds those too.  This module owns them:

* the op names and :data:`CONTROL_OPS`, the force-synced set;
* :func:`segment_batch` and :func:`batch_segments`, the batch's one
  writer and one reader;
* :func:`dump` — live state as records, optionally one contributor range
  — over :func:`dump_op`, one kind's records drawn lazily: the snapshot
  writer's five files are five such draws, so segments leave a store by
  the same dumper as everything else;
* :func:`export_range` — a migration's batch and its digest, which the
  export answers and the fence checks;
* :func:`apply` — the **only** code that installs a record into a live
  service.  WAL replay and snapshot load call it with ``journal=False``;
  replica apply and migration install with ``journal=True``;
  ``DataStoreService.set_places`` and principal registration are its
  live callers.  ``tests/integration/test_one_installer.py`` fails the
  build if any other module assigns that state;
* :func:`replace` — a replica's resync: the service's state becomes a
  primary's :func:`dump`, through :func:`apply`, dropping what it lacks;
* the two fail-closed transitions, :func:`fail_close` and
  :func:`lift_fail_closed`.

Live rule, segment and audit *mutations* do not come through here:
versioning, optimizer merges and chain hashing are not "assign complete
state".  They go through ``RuleStore`` / ``SegmentStore`` / ``AuditLog``
and journal from the hooks :class:`~repro.storage.durability.Durability`
attaches.

Every op is idempotent or last-wins (rule snapshots carry a version and
install monotonically, segments replace by id, a batch row by row, audit
restore dedupes per seq), so overlapping snapshots, bootstraps, log tails
and a retried migration install converge instead of double-applying.
docs/ARCHITECTURE.md, "The store's log", has the per-op table.
"""

from __future__ import annotations

import hashlib
from typing import Iterator, Optional

import numpy as np

from repro.datastore.codec import ENCODING_RAW, decode_frame_values, encode_values
from repro.datastore.wavesegment import WaveSegment
from repro.exceptions import SchemaError, StorageError
from repro.rules.rulestore import RuleSetSnapshot
from repro.sensors.packets import decode_captures, encode_captures
from repro.server.audit import AuditRecord
from repro.util import jsonutil
from repro.util.geo import LabeledPlace
from repro.util.jsonutil import require_keys, require_type

OP_SEGMENT = "segment"
OP_SEGMENT_BATCH = "segment_batch"
OP_SEGMENT_DELETE = "segment_delete"
OP_RULES = "rules"
OP_PLACES = "places"
OP_ROLE = "role"
OP_AUDIT = "audit"
KNOWN_OPS = (
    OP_SEGMENT, OP_SEGMENT_BATCH, OP_SEGMENT_DELETE, OP_RULES, OP_PLACES, OP_ROLE, OP_AUDIT
)

#: Ops that carry rule semantics or the audit trail.  Every journal append
#: of one is ``force_sync``: an acknowledged rule change is on disk before
#: the ack whatever the sync policy, on the store that wrote it and on
#: every store that re-journals it.  Bulk segment data rides the group
#: window instead.
CONTROL_OPS = frozenset((OP_RULES, OP_PLACES, OP_ROLE, OP_AUDIT))

ROLE_CONTRIBUTOR = "contributor"
ROLE_MOVED = "moved"  # a contributor migrated off: her fence
ROLE_PAIRED_PRIMARY = "primary"  # the primary a replica takes frames from: never journaled


def places_record(contributor: str, places: dict) -> dict:
    """The ``data`` of a places record: one contributor's complete set."""
    return {
        "Contributor": contributor,
        "Places": [place.to_json() for place in places.values()],
    }


def record_owner(op: str, data: dict) -> str:
    """The contributor (or principal) one record names ('' = store-wide)."""
    if op in (OP_SEGMENT, OP_SEGMENT_BATCH, OP_RULES, OP_PLACES, OP_AUDIT):
        return str(data.get("Contributor", ""))
    if op == OP_ROLE:
        return str(data.get("Principal", ""))
    return ""


def segment_batch(segments) -> dict:
    """The ``data`` of a segment batch: one contributor's segments that one
    request finalized, as one columnar body.

    ``Contributor`` once; ``Captures`` each distinct ``[Location, Context]``
    once, first use first (:func:`~repro.sensors.packets.encode_captures`,
    the upload frame's table); ``Segments`` one ``[SegmentId, StartTime,
    SamplingInterval, Format, capture, Samples]`` row a segment, in the
    order they were stored; ``Values`` every segment's samples back to back
    (each row-major over its ``Format``) as one ``le-f64`` blob, which the
    journal's wire form carries as one part.  :func:`batch_segments` is its
    only parser.
    """
    table, capture_of = encode_captures((s.location, s.context) for s in segments)
    flat = np.concatenate([s.values.reshape(-1) for s in segments])
    return {
        "Contributor": segments[0].contributor,
        **table,
        "Segments": [
            [s.segment_id, s.start_ms, s.interval_ms, list(s.channels), capture, s.n_samples]
            for s, capture in zip(segments, capture_of)
        ],
        "Values": encode_values(flat.reshape(-1, 1), ENCODING_RAW),
    }


def batch_segments(data: dict) -> list:
    """The segments of a :func:`segment_batch` body, in row order.

    The blob is decoded once and each segment's samples are a read-only
    view of it.  :class:`~repro.exceptions.SchemaError`, before any segment
    is returned, unless every row is six cells of the right types naming a
    capture, every capture is used, and the rows consume the samples
    exactly; each segment is then held to :class:`WaveSegment`'s checks.
    """
    where = "segment batch"
    require_keys(data, ("Contributor", "Segments", "Values"), where=where)
    contributor = str(data["Contributor"])
    flat = decode_frame_values(data["Values"], where=where)
    captures = decode_captures(data, where=where)
    segments, used, offset = [], set(), 0
    for row in require_type(data["Segments"], list, where=f"{where} Segments"):
        cells = row if type(row) is list and len(row) == 6 else [None] * 6
        segment_id, start, interval, channels, capture, n = cells
        if not (
            isinstance(segment_id, str) and type(start) is type(capture) is type(n) is int
            and (interval is None or type(interval) is int)
            and type(channels) is list and all(isinstance(c, str) for c in channels)
            and 0 <= capture < len(captures) and n > 0
        ):
            raise SchemaError(
                f"{where}: row {len(segments)} is not [SegmentId, StartTime, "
                "SamplingInterval, Format, capture, Samples]"
            )
        end = offset + n * len(channels)
        if end > len(flat):
            raise SchemaError(f"{where}: row {len(segments)} overruns the samples")
        location, context = captures[capture]
        segments.append(WaveSegment(
            contributor, tuple(channels), start, interval,
            flat[offset:end].reshape(n, len(channels)), location, dict(context), segment_id,
        ))  # fmt: skip
        used.add(capture)
        offset = end
    if offset != len(flat) or len(used) != len(captures):
        raise SchemaError(f"{where}: rows consume {offset} of {len(flat)} values "
                          f"and {len(used)} of {len(captures)} captures")  # fmt: skip
    return segments


#: The kinds with live state (a deletion leaves none), in :func:`dump` order.
DUMP_ORDER = (OP_ROLE, OP_SEGMENT, OP_RULES, OP_PLACES, OP_AUDIT)


def dump_op(service, op: str, contributors=None) -> Iterator[dict]:
    """The ``data`` of every live record of one kind, lazily.

    The generator under :func:`dump`, and what the snapshot writer draws
    each file's rows from: a segment is serialised as its row is written,
    never held beside every other.  ``contributors`` as for :func:`dump`.
    """
    wanted = None if contributors is None else set(contributors)

    def moving(name: str) -> bool:
        return wanted is None or name in wanted

    if op == OP_ROLE:
        for principal, role in sorted(service.roles.items()):
            if moving(principal):
                # Groups and credential only where installed: other rows keep their bytes.
                data = {"Principal": principal, "Role": role}
                if principal in service.memberships:
                    data["Groups"] = sorted(service.memberships[principal])
                if principal in service.credentials:
                    data["Salt"], data["PasswordHash"] = service.credentials[principal]
                yield data
    elif op == OP_SEGMENT:
        for contributor in filter(moving, service.store.contributors()):
            for segment in service.store.segments_of(contributor):
                yield segment.to_json()
    elif op == OP_RULES:
        for contributor in filter(moving, service.rules.contributors()):
            yield service.rules.snapshot(contributor).to_json()
    elif op == OP_PLACES:
        for contributor, places in sorted(service.places.items()):
            if moving(contributor):
                yield places_record(contributor, places)
    elif op == OP_AUDIT:
        for contributor in filter(moving, service.audit.contributors()):
            for record in service.audit.trail_of(contributor):
                yield record.to_json()


def dump(service, contributors=None) -> list:
    """A service's durable state as ``(op, data)`` records.

    ``contributors=None`` is everything (a replica's resync bootstrap);
    a set restricts the walk to the records :func:`record_owner` assigns
    to its members (a migration's moving range).

    The records come from live state, not disk, so the frame CRC
    machinery has nothing to vouch for; integrity rides the authenticated
    transport, the same trust as any other broker- or primary-keyed call.
    """
    return [
        (op, data) for op in DUMP_ORDER for data in dump_op(service, op, contributors)
    ]


def export_range(service, contributors) -> tuple:
    """``(records, digest)``: a contributor range as a migration ships it.

    ``records`` is the range's :func:`dump` as ``[op, data]`` lists, minus
    ``moved`` role rows (the fence is the source's own and would fence the
    destination); ``digest`` is the SHA-256 of their canonical JSON.
    ``/api/migrate/send`` posts the records to the destination and answers
    the broker the digest, which ``/api/migrate/fence`` recomputes before it
    writes a fence, so a write that raced the copy aborts the move instead
    of being left behind.
    """
    shipped = [
        [op, data]
        for op, data in dump(service, contributors)
        if not (op == OP_ROLE and data["Role"] == ROLE_MOVED)
    ]
    digest = hashlib.sha256(jsonutil.canonical_dumps(shipped).encode("utf-8"))
    return shipped, digest.hexdigest()


def apply(
    service,
    op: str,
    data: dict,
    *,
    journal: bool,
    rules_trusted: bool = True,
    payload: Optional[bytes] = None,
) -> int:
    """Install one record into a live service; returns the items it installed.

    The count is rules, places or audit records actually taken (a rule
    record whose version lost, or an audit record already held, is 0),
    1 for a role or a segment, and a batch's rows.

    ``journal=True`` re-journals the record into the service's own WAL
    with its op's sync class — a replica or migration destination must
    recover to what it was sent — and is a no-op on a non-durable store.
    ``payload`` is the record's encoding when the caller verified it byte
    for byte (a shipped frame): it is journaled verbatim instead of being
    re-encoded from ``data``.

    Rule records install version-monotonically: an older snapshot never
    rewinds a newer one.  ``rules_trusted=False`` means the state already
    in the store came from a rules snapshot that could not be verified;
    its version numbers are then as suspect as its rules, so the record
    overwrites unconditionally (records carry complete state and replay
    in LSN order, so the last one wins) instead of letting a possibly
    bit-flipped version win the comparison.

    **The lift rule:** a rule record lifts the contributor's fail-closed
    flag iff it was installed (its version won, or ``rules_trusted`` is
    False).  A skipped record changed nothing, so the deny stands.

    Places move the store-wide rules epoch, exactly as an installed rule
    set does: they feed rule semantics, so decisions cached and artifacts
    compiled under the old places must become unreachable.

    A role record is its principal's complete state, groups and
    credential included; a consumer row without ``Groups`` is one the
    store cannot vouch for, a contributor row without ``PasswordHash`` one
    nobody can re-key.  A contributor row registers her (empty, version 0)
    rule set if she has none, so every store it reaches knows her.  Over a
    ``moved`` row (a move back), it first drops the segments left behind;
    those she still holds follow.
    """
    if op == OP_SEGMENT:
        service.store.restore_segment(WaveSegment.from_json(data))
        count = 1
    elif op == OP_SEGMENT_BATCH:
        segments = batch_segments(data)
        for segment in segments:
            service.store.restore_segment(segment)
        count = len(segments)
    elif op == OP_SEGMENT_DELETE:
        count = int(service.store.remove_segment(str(data["SegmentId"])))
    elif op == OP_RULES:
        snapshot = RuleSetSnapshot.from_json(data)
        rules = service.rules
        rules.register(snapshot.contributor)
        count = 0
        if not rules_trusted or snapshot.version >= rules.version_of(snapshot.contributor):
            rules.restore(snapshot.contributor, snapshot.rules, snapshot.version)
            lift_fail_closed(service, snapshot.contributor)
            count = len(snapshot.rules)
    elif op == OP_PLACES:
        places = {
            place.label: place
            for place in (LabeledPlace.from_json(p) for p in data.get("Places", []))
        }
        service.places[str(data["Contributor"])] = places
        service.rules.rules_version += 1
        count = len(places)
    elif op == OP_ROLE:
        principal, role = str(data["Principal"]), str(data["Role"])
        if role == ROLE_CONTRIBUTOR:
            service.rules.register(principal)
            if service.roles.get(principal) == ROLE_MOVED:
                for segment in service.store.segments_of(principal):
                    service.store.remove_segment(segment.segment_id)
        service.roles[principal] = role
        if "Groups" in data:
            service.memberships[principal] = frozenset(map(str, data["Groups"]))
        else:
            service.memberships.pop(principal, None)
        if "PasswordHash" in data:
            service.credentials[principal] = (str(data["Salt"]), str(data["PasswordHash"]))
        else:
            service.credentials.pop(principal, None)
        count = 1
    elif op == OP_AUDIT:
        count = service.audit.restore([AuditRecord.from_json(data)])
    else:
        raise StorageError(f"unknown WAL op {op!r} (written by a newer version?)")
    if journal and service.durability is not None:
        service.durability.journal(op, data, own=False, payload=payload)
    return count


def replace(service, batch) -> None:
    """Make a service's state exactly ``batch``: a replica's resync.

    ``batch`` is a primary's :func:`dump`.  Every segment, role (its
    groups and credential with it), rule set and places row it does not
    carry is dropped, then each record installs through :func:`apply`
    without journaling: the caller checkpoints, so the disk becomes the
    new state in one step.

    Two things stay.  The replica's ``primary`` pairing role, which is
    never journaled and lives as long as the key it was issued with.  And
    the audit trail: records merge as :meth:`AuditLog.restore` always has,
    because a record held here alone can be the only trace of a read that
    a partitioned ex-primary served.

    A carried rule set replaces the replica's, whatever their versions:
    one above the primary's is a change the primary never acknowledged
    (an ex-primary's unshipped tail), whose number the primary's next
    change would reuse.  A fail-closed deny installs version-monotonically,
    so a deny above the primary's version stands.
    """
    carried = {
        (op, data.get("SegmentId") if op == OP_SEGMENT else record_owner(op, data))
        for op, data in batch
    }
    for contributor in service.store.contributors():
        for segment in service.store.segments_of(contributor):
            if (OP_SEGMENT, segment.segment_id) not in carried:
                service.store.remove_segment(segment.segment_id)
    for principal, role in sorted(service.roles.items()):
        if role != ROLE_PAIRED_PRIMARY and (OP_ROLE, principal) not in carried:
            service.roles.pop(principal)
            service.memberships.pop(principal, None)
            service.credentials.pop(principal, None)
    for contributor in service.rules.contributors():
        if (OP_RULES, contributor) not in carried:
            service.rules.forget(contributor)
            lift_fail_closed(service, contributor)
    for contributor in sorted(service.places):
        if (OP_PLACES, contributor) not in carried:
            service.places.pop(contributor)
            service.rules.rules_version += 1
    for op, data in batch:
        denied = data.get("Contributor") in service.fail_closed  # read by rule records only
        apply(service, op, data, journal=False, rules_trusted=denied)


def fail_close(service, contributor: str, version: int) -> None:
    """Deny ``contributor`` by default at rule version ``version``.

    The one fail-close routine, for rule state this store cannot vouch
    for (recovery's sweep; the promotion and cutover fence): an *empty*
    rule set — the engine's default deny — at a version the caller picks
    *above* any it distrusts, so the deny wins the next broker sync
    instead of the stale-but-newer-looking copy.  The deny itself is
    journaled (``restore`` fires no hooks) *before* it is applied: a
    crash right after must recover to deny, not to the state this
    rejected, and a crash in the append leaves the lag in place for the
    next fence to find, instead of a deny held only in memory.  During
    recovery the WAL is not open yet; :meth:`Durability.open` journals
    the denies it finds in the report once it is.  The flag lifts per
    :func:`apply`'s lift rule, or when the owner re-publishes.
    """
    if service.durability is not None:
        service.durability.journal(
            OP_RULES, RuleSetSnapshot(contributor, version, ()).to_json()
        )
    service.rules.register(contributor)
    service.rules.restore(contributor, [], version)
    service.fail_closed.add(contributor)
    service.network.obs.slo.fail_closed_entered(service.host, contributor)


def lift_fail_closed(service, contributor: str) -> None:
    """Clear the fail-closed flag: the contributor's rules are current again."""
    if contributor in service.fail_closed:
        service.fail_closed.discard(contributor)
        service.network.obs.slo.fail_closed_cleared(service.host, contributor)
