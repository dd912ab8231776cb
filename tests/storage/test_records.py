"""One record, four log-fed paths, one outcome.

WAL replay, snapshot load, a shipped replica frame and a migration
install are all callers of :func:`repro.storage.records.apply`.  The
table below drives the *same* record through each of them onto the same
pre-state and requires the same resulting state — so "when does a rule
set win", "when does a fail-closed deny lift" and "what is force-synced"
have one answer, stated in the ``expect`` column, not one per path.
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.conftest import MONDAY, make_segment, read_wal_frames
from repro.datastore.codec import ENCODING_B64, ENCODING_RAW, encode_values
from repro.datastore.optimizer import MergePolicy
from repro.datastore.query import DataQuery
from repro.exceptions import SensorSafeError, SimulatedCrashError
from repro.net import wire
from repro.net.client import HttpClient
from repro.net.transport import Network
from repro.rules.model import ALLOW, DENY, Rule
from repro.rules.rulestore import RuleSetSnapshot
from repro.server.datastore_service import DataStoreService
from repro.storage import CRASH_POINTS, StorageFaultPlan, records
from repro.storage.atomic import atomic_write_jsonl
from repro.storage.recovery import SNAPSHOT_KINDS, recover_service, snapshot_path, wal_path
from repro.storage.replication import encode_ship
from repro.storage.wal import HEADER_SIZE, WriteAheadLog, decode_payload, scan_wal
from repro.util import jsonutil
from repro.util.geo import BoundingBox, LabeledPlace

HOST = "st"
HOME = LabeledPlace("home", BoundingBox(0, 0, 1, 1))
WORK = LabeledPlace("work", BoundingBox(2, 2, 3, 3))
MIRROR = 5  # the broker-mirror version the fail-closed pre-state is fenced above


def target(tmp_path, name, *, durable=False, fail_closed=False):
    """A store in the table's pre-state: alice at rule version 2, a paired broker."""
    service = DataStoreService(HOST, Network(), directory=str(tmp_path / name), durable=durable)
    service.pair_broker("", "")
    service.register_contributor("alice")
    service.register_consumer("bob")
    service.rules.add("alice", Rule(consumers=("bob",), action=ALLOW, rule_id="r1"))
    service.rules.add("alice", Rule(consumers=("bob",), action=DENY, rule_id="r2"))
    service.set_places("alice", {"home": HOME})
    service.store.add_segment(make_segment())
    service.store.flush()
    service.audit.record_access(
        principal="bob", contributor="alice", query={}, raw_access=False, segments_scanned=1
    )
    if fail_closed:
        fence(service)
    return service


def fence(service):
    """Fail alice closed above the broker mirror, as a promotion would."""
    assert service._fence_rule_versions({"alice": MIRROR}) == ["alice"]


def observe(service):
    """Everything a record can change, in comparable form."""
    return {
        "rules": {
            name: (service.rules.version_of(name), [r.rule_id for r in service.rules.rules_of(name)])
            for name in service.rules.contributors()
        },
        "places": {name: sorted(places) for name, places in service.places.items()},
        "roles": dict(service.roles),
        "fail_closed": sorted(service.fail_closed),
        "segments": sorted(s.segment_id for s in service.store.segments_of("alice")),
        "audit": [r.seq for r in service.audit.trail_of("alice")],
    }


# -- the four paths -----------------------------------------------------


def via_wal_replay(tmp_path, op, data, **pre):
    service = target(tmp_path, "replay", **pre)
    wal = WriteAheadLog(wal_path(str(tmp_path / "replay"), HOST))
    wal.append(op, data)
    wal.close()
    report = recover_service(service)
    assert report.wal_records_replayed == 1 and report.clean
    return service, None


def via_snapshot_load(tmp_path, op, data, **pre):
    kind = {kind_op: kind for kind, kind_op in SNAPSHOT_KINDS}.get(op)
    if kind is None:
        pytest.skip("no snapshot file holds this kind of record")
    service = target(tmp_path, "snapshot", **pre)
    atomic_write_jsonl(snapshot_path(str(tmp_path / "snapshot"), HOST, kind), [data])
    assert recover_service(service).clean
    return service, None


def journaled(service):
    """Record ``(op, force_sync)`` of every append to the service's WAL."""
    wal, seen = service.durability.wal, []
    append = wal.append

    def spy(op, data, *, force_sync=False, **kwargs):
        seen.append((op, force_sync))
        return append(op, data, force_sync=force_sync, **kwargs)

    wal.append = spy
    return seen


def self_resync(service, held=None):
    """Resync a store at base 0 to ``held``, by default its own records: its
    state stands, and the frame at lsn 1 of that primary's stream is the
    next it takes."""
    held = records.dump(service) if held is None else held
    bootstrap = [{"Op": op, "Data": data} for op, data in held]
    body = {"Primary": "primary", "Epoch": service.epoch, "Resync": True, "BaseLsn": 0,
            "Bootstrap": bootstrap, **encode_ship([])}
    assert service.applier.apply_batch(body) == {"AppliedLsn": 0}


def one_frame_batch(tmp_path, op, data, epoch):
    """The ``/api/replicate/append`` body a primary would ship for one
    record, the first frame above a resync at base 0."""
    scratch = WriteAheadLog(str(tmp_path / "primary.wal"))
    scratch.append(op, data)
    scratch.close()
    frames = read_wal_frames(scratch.path)
    assert len(frames) == 1
    return {"Primary": "primary", "Epoch": epoch, "Resync": False, **encode_ship(frames)}


def via_replica_frame(tmp_path, op, data, **pre):
    service = target(tmp_path, "replica", durable=True)
    service.demote()
    primary_held = list(records.dump(service))
    self_resync(service)
    batch = one_frame_batch(tmp_path, op, data, service.epoch)
    if pre.get("fail_closed"):
        # The deny takes lsn 1 of the replica's own: the primary's lsn 1
        # is refused, not skipped as held, until the primary (at rule
        # version 2, below the deny, which stands) resyncs the log.
        fence(service)
        assert service.durability.wal.last_lsn == 1
        assert service.applier.apply_batch(batch) == {
            "AppliedLsn": 0, "Rejected": "own record at lsn 1 journaled since the last resync",
        }
        self_resync(service, primary_held)
    seen = journaled(service)
    assert service.applier.apply_batch(batch) == {"AppliedLsn": 1}
    return service, seen


def via_migration_install(tmp_path, op, data, **pre):
    service = target(tmp_path, "dest", durable=True, **pre)
    seen = journaled(service)
    assert migration_install(service, [[op, data]])["Installed"] == 1
    return service, seen


def migration_install(service, batch):
    """``/api/migrate/install``, from the source of a move accepted for the
    batch's owners."""
    owners = {records.record_owner(op, data) for op, data in batch}
    body = {"Records": batch, "ApiKey": service.accept_move(owners, "src")}
    response = service.network.request(
        "POST", f"https://{HOST}/api/migrate/install", body, client="src"
    )
    assert response.status == 200, response.body
    return response.body


PATHS = [via_wal_replay, via_snapshot_load, via_replica_frame, via_migration_install]


# -- the table ------------------------------------------------------------


def rules_at(version):
    rule = Rule(consumers=("carol",), action=ALLOW, rule_id="r9")
    return RuleSetSnapshot("alice", version, (rule,)).to_json()


def reference(tmp_path):
    """A pre-state store to read generated ids and records off."""
    return target(tmp_path, "reference")


def new_segment(tmp_path):
    return make_segment(start_ms=1_300_000_000_000).to_json()


#: Three segments one upload stored: two channels at one capture, one
#: channel at another with no location and no labels, and a non-uniform
#: one at the first capture, its clock a ``Time`` column.
BATCHED = (
    make_segment(start_ms=1_300_000_000_000, channels=("ECG", "Respiration"), n=5),
    make_segment(start_ms=1_300_000_600_000, location=None, context={}, n=3),
    make_segment(
        start_ms=1_300_001_000_000, channels=("Time", "ECG"), interval_ms=None,
        values=np.array([[1_300_001_000_000.0, 0.5], [1_300_001_000_700.0, -0.5]]),
    ),
)


def new_segment_batch(tmp_path):
    return records.segment_batch(list(BATCHED))


def held_segment_id(tmp_path):
    (segment,) = reference(tmp_path).store.segments_of("alice")
    return {"SegmentId": segment.segment_id}


def next_audit_record(tmp_path):
    record = reference(tmp_path).audit.record_access(
        principal="bob", contributor="alice", query={}, raw_access=False, segments_scanned=2
    )
    return record.to_json()


#: (case, op, data or data factory, pre-state, what the record must do)
TABLE = [
    # A rule record wins at a newer or an equal version; an older one is
    # skipped and changes nothing.
    ("rules-newer", records.OP_RULES, rules_at(3), {},
     {"rules": {"alice": (3, ["r9"])}}),
    ("rules-equal", records.OP_RULES, rules_at(2), {},
     {"rules": {"alice": (2, ["r9"])}}),
    ("rules-older", records.OP_RULES, rules_at(1), {},
     {}),
    # Onto a fail-closed contributor (deny at MIRROR + 1): a skipped record
    # leaves the deny and the flag; one that wins installs and lifts.
    ("rules-older-denied",
     records.OP_RULES, rules_at(MIRROR), {"fail_closed": True},
     {}),
    ("rules-newer-denied",
     records.OP_RULES, rules_at(MIRROR + 1), {"fail_closed": True},
     {"rules": {"alice": (MIRROR + 1, ["r9"])}, "fail_closed": []}),
    # Places and roles are assigned complete; segments replace by id and
    # delete by id; an audit record not yet held is appended.
    ("places", records.OP_PLACES,
     records.places_record("alice", {"work": WORK}), {},
     {"places": {"alice": ["work"]}}),
    ("role", records.OP_ROLE, {"Principal": "carol", "Role": "consumer"}, {},
     {"roles": {"__broker__": "broker", "alice": "contributor", "bob": "consumer",
                "carol": "consumer"}}),
    ("segment", records.OP_SEGMENT, new_segment, {}, None),
    # A batch installs each row as its segment record would.
    ("segment-batch", records.OP_SEGMENT_BATCH, new_segment_batch, {},
     {"segments": sorted([make_segment().segment_id, *(s.segment_id for s in BATCHED)])}),
    ("segment-delete", records.OP_SEGMENT_DELETE, held_segment_id, {},
     {"segments": []}),
    ("audit", records.OP_AUDIT, next_audit_record, {},
     {"audit": [1, 2]}),
]


@pytest.mark.parametrize("path", PATHS, ids=lambda p: p.__name__[4:])
@pytest.mark.parametrize("case", TABLE, ids=lambda c: c[0])
def test_one_outcome_on_every_path(tmp_path, case, path):
    _, op, data, pre, expect = case
    if callable(data):
        data = data(tmp_path)
    before = observe(target(tmp_path, "before", **pre))
    if pre.get("fail_closed"):
        assert before["rules"]["alice"] == (MIRROR + 1, [])
        assert before["fail_closed"] == ["alice"]

    service, seen = path(tmp_path, op, data, **pre)

    after = observe(service)
    if expect is None:  # a new segment: one more id than before, same everything else
        assert len(after["segments"]) == len(before["segments"]) + 1
        expect = {"segments": after["segments"]}
    assert after == {**before, **expect}
    # journal=True re-journals exactly this record with its op's sync
    # class; journal=False writes nothing (there is no WAL to write to).
    if seen is not None:
        assert seen == [(op, op in records.CONTROL_OPS)]


def test_untrusted_snapshot_versions_do_not_win(tmp_path):
    """``rules_trusted=False`` (recovery with an unverifiable rules
    snapshot): the older record overwrites, and — installed — lifts."""
    service = target(tmp_path, "untrusted", fail_closed=True)
    assert records.apply(service, records.OP_RULES, rules_at(1), journal=False) == 0
    assert "alice" in service.fail_closed
    taken = records.apply(
        service, records.OP_RULES, rules_at(1), journal=False, rules_trusted=False
    )
    assert taken == 1
    assert observe(service)["rules"]["alice"] == (1, ["r9"])
    assert service.fail_closed == set()


def test_places_record_moves_the_rules_epoch(tmp_path):
    service = target(tmp_path, "epoch")
    epoch = service.rules.rules_version
    records.apply(
        service, records.OP_PLACES, records.places_record("alice", {}), journal=False
    )
    assert service.rules.rules_version == epoch + 1


def test_unknown_op_is_refused(tmp_path):
    from repro.exceptions import StorageError

    with pytest.raises(StorageError):
        records.apply(target(tmp_path, "unknown"), "teleport", {}, journal=False)


# -- the replica journals the bytes it verified ---------------------------


def wal_payloads(service):
    frames = read_wal_frames(service.durability.wal.path)
    return [frame[HEADER_SIZE:] for _lsn, frame, _chain_prev in frames]


def reencoded(payload):
    return wire.encode(wire.decode(payload))


def shipping_pair(tmp_path):
    """A primary whose log holds every op kind, shipped to a live replica."""
    network = Network()
    primary = DataStoreService(
        "primary", network, directory=str(tmp_path / "primary"), durable=True
    )
    shipper = primary.enable_replication()
    replica = DataStoreService(
        "replica", network, directory=str(tmp_path / "replica"), durable=True
    )
    replica.demote()
    shipper.attach(
        "replica", HttpClient(network, name="primary", api_key=replica.pair_primary())
    )
    shipper.pump()  # the resync, of nothing: every record below arrives as a frame
    primary.register_contributor("alice")
    primary.register_consumer("bob")
    primary.rules.add("alice", Rule(consumers=("bob",), action=ALLOW, rule_id="r1"))
    primary.set_places("alice", {"home": HOME, "café": WORK})  # non-ASCII label
    primary.store.add_segment(make_segment(values=np.linspace(-0.1, 1e-7, 16).reshape(16, 1)))
    primary.store.flush()
    assert primary.store.delete("alice", DataQuery()) == 1
    primary.store.add_segment(make_segment(start_ms=1_300_000_000_000))
    primary.store.flush()
    # A migrated segment arrives as a per-segment record, as a log written
    # before batches holds every segment.
    moved = make_segment(start_ms=1_300_000_900_000)
    records.apply(primary, records.OP_SEGMENT, moved.to_json(), journal=True)
    primary.audit.record_access(
        principal="bob", contributor="alice", query={}, raw_access=False, segments_scanned=1
    )
    primary.durability.commit()
    shipper.pump()
    assert replica.durability.wal.last_lsn == primary.durability.wal.last_lsn
    return primary, replica


def test_replica_wal_holds_the_primary_s_payload_bytes(tmp_path):
    primary, replica = shipping_pair(tmp_path)
    shipped = wal_payloads(primary)
    assert wal_payloads(replica) == shipped
    ours = scan_wal(primary.durability.wal.path)
    theirs = scan_wal(replica.durability.wal.path)
    assert not (theirs.corrupt or theirs.torn)
    assert [(op, data) for _, op, data in theirs.records] == [
        (op, data) for _, op, data in ours.records
    ]
    assert {op for _, op, _ in ours.records} == set(records.KNOWN_OPS)
    assert records.dump(replica, ["alice", "bob"]) == records.dump(primary)


def test_every_dumped_record_is_a_fixed_point_of_the_encoder(tmp_path):
    """Journaling verified bytes verbatim writes what re-encoding the
    parsed record would have: decode-then-encode is the identity."""
    primary, _ = shipping_pair(tmp_path)
    dumped = records.dump(primary)
    assert {op for op, _ in dumped} == set(records.KNOWN_OPS) - {
        records.OP_SEGMENT_DELETE, records.OP_SEGMENT_BATCH,
    }
    for op, data in dumped:
        payload = jsonutil.canonical_dumps({"Op": op, "Data": data}).encode("utf-8")
        assert reencoded(payload) == payload
        assert decode_payload(payload)[0] == op
    journaled = wal_payloads(primary)
    assert any(b"\n" in payload for payload in journaled)  # a segment's samples, raw
    for payload in journaled:
        assert reencoded(payload) == payload


def test_only_verified_bytes_skip_the_encoder(tmp_path):
    """Bootstrap and migration records arrive as dicts: they keep encoding,
    through the same framing path."""
    service = target(tmp_path, "dest", durable=True)
    before = wal_payloads(service)
    data = {"Principal": "carol", "Role": "consumer"}
    assert migration_install(service, [[records.OP_ROLE, data]])["Installed"] == 1
    assert wal_payloads(service)[len(before):] == [
        jsonutil.canonical_dumps({"Op": records.OP_ROLE, "Data": data}).encode("utf-8")
    ]


# -- a log journaled before and after segments were batched -------------

#: The crash points a journal append or commit passes through.
WAL_POINTS = tuple(point for point in CRASH_POINTS if point.startswith("wal."))


def mixed_log(directory, plan=None):
    """A store whose WAL holds a segment in each form a log has held: base64
    inside canonical JSON (the form a migration install still journals),
    one raw ``le-f64`` part a segment (a log written before batches), and
    one batch record of the two segments an upload stored.  Returns
    ``(service, acked, crashed)``: ``acked`` are the segment ids a commit
    made durable before ``plan``, if it did, crashed the store."""
    service = DataStoreService(
        HOST, Network(), directory=str(directory), durable=True, storage_faults=plan
    )
    acked, crashed = [], False
    try:
        service.register_contributor("alice")
        service.register_consumer("bob")
        service.rules.add("alice", Rule(consumers=("bob",), action=ALLOW, rule_id="r1"))
        for hour, encoding in ((1, ENCODING_B64), (2, ENCODING_RAW)):
            segment = make_segment(start_ms=MONDAY + hour * 3_600_000)
            data = {**segment.to_json(), "Values": encode_values(segment.values, encoding)}
            records.apply(service, records.OP_SEGMENT, data, journal=True)
        service._wal_commit()
        acked = sorted(s.segment_id for s in service.store.segments_of("alice"))
        service.store.add_segments(
            [make_segment(start_ms=MONDAY + hour * 3_600_000) for hour in (3, 4)], flush=True
        )
        service._wal_commit()
        acked = sorted(s.segment_id for s in service.store.segments_of("alice"))
    except SimulatedCrashError:
        service.durability.wal._fh.close()  # the process is gone
        crashed = True
    return service, acked, crashed


def test_a_mixed_log_recovers_to_the_same_dump(tmp_path):
    service, _, _ = mixed_log(tmp_path)
    journaled = wal_payloads(service)
    forms = [
        (op, b"\n" in payload, b"b64le-f64" in payload)
        for payload in journaled
        if (op := decode_payload(payload)[0]) in (records.OP_SEGMENT, records.OP_SEGMENT_BATCH)
    ]
    assert forms == [
        (records.OP_SEGMENT, False, True),
        (records.OP_SEGMENT, True, False),
        (records.OP_SEGMENT_BATCH, True, False),
    ]
    before = records.dump(service)
    assert len(dumped_segments(service)) == 4
    service.durability.close()
    restarted = DataStoreService(HOST, Network(), directory=str(tmp_path), durable=True)
    assert restarted.recovery_report.clean, restarted.recovery_report.summary()
    assert restarted.recovery_report.wal_records_replayed == len(journaled)
    assert records.dump(restarted) == before


def dumped_segments(service):
    """Segment id -> the segment's dumped record."""
    return {
        data["SegmentId"]: data for op, data in records.dump(service) if op == records.OP_SEGMENT
    }


def armed(point, hit):
    """A plan that crashes (or, at a write, tears) ``point``'s ``hit``-th pass."""
    plan = StorageFaultPlan(seed=hit)
    if point.endswith(".write"):
        plan.add_torn_write(point, at_hit=hit)
    else:
        plan.add_crash(point, at_hit=hit)
    return plan


@pytest.mark.parametrize("point", WAL_POINTS)
def test_a_mixed_log_survives_a_crash_at_every_hit(tmp_path, point):
    """Whichever append of the mixed log a crash cuts, the restart reads
    no corruption, keeps every acknowledged segment and holds each
    segment it kept exactly as the uncrashed store dumps it."""
    want = dumped_segments(mixed_log(tmp_path / "complete")[0])
    for hit in range(16):
        service, acked, crashed = mixed_log(tmp_path / f"hit{hit}", armed(point, hit))
        if not crashed:
            service.durability.close()
        restarted = DataStoreService(
            HOST, Network(), directory=str(tmp_path / f"hit{hit}"), durable=True
        )
        report = restarted.recovery_report
        assert not report.wal_corrupt and report.fail_closed == [], report.summary()
        held = dumped_segments(restarted)
        assert set(acked) <= set(held) and all(want[i] == held[i] for i in held)
        restarted.durability.close()
        if not crashed:
            assert hit > 0, f"{point} never fired"
            assert held == want
            return
    pytest.fail(f"{point} still firing after 16 hits")


def uploads():
    """Three uploads, each the packets of two channels and the flush that
    closes their runs: each stores three segments, journaled as one batch."""
    for k in range(3):
        start = MONDAY + k * 3_600_000
        yield [
            make_segment(start_ms=start, n=8),
            make_segment(start_ms=start + 8_000, n=8),  # merges with the first
            make_segment(start_ms=start + 60_000, n=4),
            make_segment(start_ms=start, channels=("Respiration",), n=5),
        ]


def upload_log(directory, plan=None):
    """``(ids each upload stored, uploads acknowledged, crashed)`` of one
    store lifetime that takes :func:`uploads`, each acknowledged once its
    commit returns, as ``/api/upload_packets`` acknowledges a flush."""
    service = DataStoreService(
        HOST, Network(), directory=str(directory), durable=True, storage_faults=plan
    )
    stored, acked = [], 0
    try:
        service.register_contributor("alice")
        for upload in uploads():
            stored.append({s.segment_id for s in service.store.add_segments(upload, flush=True)})
            service._wal_commit()
            acked += 1
    except SimulatedCrashError:
        service.durability.wal._fh.close()  # the process is gone
        return stored, acked, True
    service.durability.close()
    return stored, acked, False


@pytest.mark.parametrize("point", WAL_POINTS)
def test_recovery_holds_a_prefix_of_acknowledged_uploads_never_part_of_one(tmp_path, point):
    """Whichever append or commit a crash cuts, the restarted store holds
    the segments of the first ``j`` uploads for some ``j`` at least the
    number acknowledged: a batch is one frame, so a torn or unsynced one
    takes its whole upload with it, never a part."""
    per_upload, _, _ = upload_log(tmp_path / "complete")
    assert [len(ids) for ids in per_upload] == [3, 3, 3]
    prefixes = [set().union(*per_upload[:j]) for j in range(len(per_upload) + 1)]
    for hit in range(16):
        _, acked, crashed = upload_log(tmp_path / f"hit{hit}", armed(point, hit))
        restarted = DataStoreService(
            HOST, Network(), directory=str(tmp_path / f"hit{hit}"), durable=True
        )
        assert not restarted.recovery_report.wal_corrupt, restarted.recovery_report.summary()
        held = {s.segment_id for s in restarted.store.segments_of("alice")}
        restarted.durability.close()
        assert held in prefixes, f"hit {hit}: part of an upload survived"
        assert prefixes.index(held) >= acked, f"hit {hit}: an acknowledged upload was lost"
        if not crashed:
            assert hit > 0, f"{point} never fired"
            assert held == prefixes[-1]
            return
    pytest.fail(f"{point} still firing after 16 hits")


class TestFailClosedReplica:
    """A replica recovers fail-closed, takes a complete resync, and is
    promoted with a broker mirror that matches the primary.  The one lift
    rule decides what the resync does to the deny, by version alone."""

    def recovered_replica(self, tmp_path, rotten_kind):
        """Primary + replica in sync on alice's rules at version 1; the
        replica then checkpoints, one snapshot file rots, and it restarts
        and takes a complete resync."""
        network = Network()
        primary = DataStoreService(
            "primary", network, directory=str(tmp_path / "primary"), durable=True
        )
        shipper = primary.enable_replication()

        def start_replica():
            replica = DataStoreService(
                "replica", network, directory=str(tmp_path / "replica"), durable=True
            )
            replica.demote()
            key = replica.pair_primary()
            shipper.attach("replica", HttpClient(network, name="primary", api_key=key))
            return replica

        replica = start_replica()
        primary.register_contributor("alice")
        primary.rules.add("alice", Rule(consumers=("bob",), action=ALLOW, rule_id="r1"))
        shipper.pump()
        assert replica.rules.version_of("alice") == 1

        replica.checkpoint()
        replica.durability.close()
        path = snapshot_path(str(tmp_path / "replica"), "replica", rotten_kind)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{rot\n")
        network.unregister_host("replica")
        replica = start_replica()
        assert replica.recovery_report.fail_closed == ["alice"]
        assert replica.fail_closed == {"alice"}
        denied_at = replica.rules.version_of("alice")

        assert shipper.links["replica"].resync
        shipper.pump()
        assert replica.durability.wal.last_lsn == primary.durability.wal.last_lsn
        return network, replica, denied_at

    def test_resync_lifts_a_deny_the_primary_beats(self, tmp_path):
        """The rules snapshot itself was quarantined, so the version went
        with it: the deny sits at 1, the primary's record at 1 wins, is
        installed — the replica's rules are the primary's again — and lifts."""
        network, replica, denied_at = self.recovered_replica(tmp_path, "rules")
        assert denied_at == 1
        assert replica.fail_closed == set()
        assert [r.rule_id for r in replica.rules.rules_of("alice")] == ["r1"]
        assert network.obs.slo.report()["OpenFailClosed"] == []
        assert replica.promote(replica.epoch + 1, {"alice": 1})["FailClosed"] == []

    def test_deny_above_primary_version_stands(self, tmp_path):
        """The places snapshot rotted instead: rules loaded at version 1,
        so the deny sits at 2 and the primary's record at 1 is skipped.
        The deny — flag, health, dwell clock — stands through the resync
        and a promotion whose mirror matches, until a version that wins."""
        network, replica, denied_at = self.recovered_replica(tmp_path, "places")
        assert denied_at == 2
        assert replica.fail_closed == {"alice"}
        assert replica.rules.rules_of("alice") == ()

        promoted = replica.promote(replica.epoch + 1, {"alice": 1})
        # Nothing lags the mirror, so nothing is newly fenced, but the
        # report names every mirrored contributor denied here.
        assert promoted["FailClosed"] == ["alice"]
        assert replica.rules.version_of("alice") == denied_at
        assert replica.fail_closed == {"alice"}
        probe = replica.keys.issue("probe")
        health = network.request(
            "POST", "https://replica/api/health", {"ApiKey": probe}
        ).body
        assert health["FailClosed"] == ["alice"]
        open_denies = network.obs.slo.report()["OpenFailClosed"]
        assert [d["Contributor"] for d in open_denies] == ["alice"]

        # The owner re-publishing on the new primary is a version that wins.
        replica.rules.add("alice", Rule(consumers=("bob",), action=ALLOW, rule_id="r2"))
        assert replica.fail_closed == set()
        assert network.obs.slo.report()["OpenFailClosed"] == []


def journaled_ops(service):
    return [decode_payload(payload)[0] for payload in wal_payloads(service)]


def restarted_dump(service, directory):
    service.durability.close()
    again = DataStoreService(HOST, Network(), directory=str(directory), durable=True)
    assert again.recovery_report.clean, again.recovery_report.summary()
    return records.dump(again)


def test_a_flush_journals_one_batch_per_contributor(tmp_path):
    """A flush closes every open run, whoever owns it: each contributor's
    segments are one batch naming her once."""
    service = DataStoreService(HOST, Network(), directory=str(tmp_path), durable=True)
    for name in ("alice", "bob"):
        service.register_contributor(name)
        service.store.add_segment(make_segment(contributor=name))
    before = len(wal_payloads(service))
    assert len(service.store.flush()) == 2
    batches = [wire.decode(p)["Data"] for p in wal_payloads(service)[before:]]
    assert [(b["Contributor"], len(b["Segments"])) for b in batches] == [("alice", 1), ("bob", 1)]
    assert restarted_dump(service, tmp_path) == records.dump(service)


def test_a_compaction_journals_its_merge_as_one_batch(tmp_path):
    """Compaction journals a deletion per segment it folds and one batch
    of what it stored in their place, and a restart lands on the same state."""
    service = DataStoreService(
        HOST, Network(), directory=str(tmp_path), durable=True,
        merge_policy=MergePolicy(enabled=False),
    )
    service.register_contributor("alice")
    service.store.add_segments(
        [make_segment(start_ms=MONDAY + k * 16_000) for k in range(3)], flush=True
    )
    service.store.optimizer.policy = MergePolicy()
    before = len(wal_payloads(service))
    assert service.store.compact("alice") == 2
    assert journaled_ops(service)[before:] == [records.OP_SEGMENT_DELETE] * 3 + [
        records.OP_SEGMENT_BATCH
    ]
    assert restarted_dump(service, tmp_path) == records.dump(service)


def _batch_with(edit):
    data = records.segment_batch(list(BATCHED))
    edit(data)
    return data


def _set_cell(row, cell, value):
    def edit(data):
        data["Segments"][row][cell] = value
    return edit


MALFORMED_BATCHES = {
    "no rows": lambda d: d.pop("Segments"),
    "no captures": lambda d: d.pop("Captures"),
    "no contributor": lambda d: d.pop("Contributor"),
    "rows not a list": lambda d: d.update(Segments={}),
    "a row of five cells": lambda d: d["Segments"][0].pop(),
    "an id that is a number": _set_cell(0, 0, 7),
    "a start that is text": _set_cell(0, 1, "1300000000000"),
    "a start that is a boolean": _set_cell(0, 1, True),
    "an interval that is a float": _set_cell(0, 2, 1000.0),
    "a format that is text": _set_cell(0, 3, "ECG"),
    "a capture out of range": _set_cell(1, 4, 9),
    "a negative capture": _set_cell(1, 4, -1),
    "no samples": _set_cell(1, 5, 0),
    "a row that overruns": _set_cell(2, 5, 99),
    "samples left over": _set_cell(1, 5, 2),
    "a capture no row uses": lambda d: d["Captures"].append([None, {}]),
    "a capture that is not a pair": lambda d: d["Captures"].__setitem__(0, [None]),
    "a base64 blob": lambda d: d.update(Values=make_segment().to_json()["Values"]),
    "no channel": _set_cell(0, 3, []),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_BATCHES))
def test_a_malformed_batch_is_refused_whole(tmp_path, case):
    """A batch the parser refuses installs none of its rows."""
    service = target(tmp_path, "refuses")
    before = observe(service)
    with pytest.raises(SensorSafeError):
        records.apply(
            service, records.OP_SEGMENT_BATCH, _batch_with(MALFORMED_BATCHES[case]), journal=False
        )
    assert observe(service) == before
