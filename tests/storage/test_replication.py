"""WAL shipping and replica application (PR 6 tentpole, storage layer).

These tests wire a primary and replica directly (no broker) so every
protocol edge — the resync, idempotent re-ship, gaps, checkpoint chain
restarts, semi-sync acknowledgement, epoch fencing, replica read fencing
— is exercised in isolation.
"""

from __future__ import annotations

import pytest

from tests.conftest import assert_replica_matches, make_segment, read_wal_frames
from repro.exceptions import (
    NotPrimaryError,
    ReplicationError,
    StaleEpochError,
    StorageError,
)
from repro.net.client import HttpClient
from repro.net.transport import Network
from repro.rules.model import ALLOW, Rule
from repro.server.datastore_service import PRIMARY_PRINCIPAL, ROLE_REPLICA, DataStoreService
from repro.util.geo import BoundingBox, LabeledPlace
from repro.storage.replication import encode_ship
from repro.storage.wal import WriteAheadLog


HOME = LabeledPlace("home", BoundingBox(0, 0, 1, 1))


def ship(frames=(), **members):
    """The ``/api/replicate/append`` body "primary" ships for ``frames``."""
    return {"Primary": "primary", "Epoch": 1, "Resync": False, **members, **encode_ship(frames)}


def make_pair(tmp_path, *, n_replicas=1):
    """A durable primary shipping to durable replicas, hand-wired."""
    network = Network()
    primary = DataStoreService(
        "primary", network, directory=str(tmp_path / "primary"), durable=True
    )
    replicas = []
    shipper = primary.enable_replication()
    for i in range(n_replicas):
        host = f"replica-{i}"
        replica = DataStoreService(host, network, directory=str(tmp_path / host), durable=True)
        replica.demote()
        ship_key = replica.pair_primary()
        shipper.attach(host, HttpClient(network, name="primary", api_key=ship_key))
        replicas.append(replica)
    return network, primary, replicas


class TestShipping:
    def test_frames_ship_and_apply(self, tmp_path):
        _, primary, (replica,) = make_pair(tmp_path)
        primary.register_contributor("alice")
        primary.rules.add("alice", Rule(consumers=("bob",), action=ALLOW))
        primary.store.add_segment(make_segment())
        primary.store.flush()
        primary.durability.commit()
        primary.replication.pump()
        assert replica.durability.wal.last_lsn == primary.durability.wal.last_lsn
        assert replica.store.stats.n_segments == primary.store.stats.n_segments
        assert replica.rules.version_of("alice") == 1
        assert [r.rule_id for r in replica.rules.rules_of("alice")] == [
            r.rule_id for r in primary.rules.rules_of("alice")
        ]
        assert replica.roles.get("alice") == "contributor"

    def test_backfill_ships_state_written_before_replication(self, tmp_path):
        """Named for the disk backfill this once took; the link's first
        ship, a resync, carries everything written before it."""
        network = Network()
        primary = DataStoreService(
            "primary", network, directory=str(tmp_path / "p"), durable=True
        )
        primary.register_contributor("alice")
        primary.store.add_segment(make_segment())
        primary.store.flush()
        primary.durability.commit()
        # Replication wired only *after* the writes above.
        shipper = primary.enable_replication()
        replica = DataStoreService(
            "replica", network, directory=str(tmp_path / "r"), durable=True
        )
        replica.demote()
        key = replica.pair_primary()
        shipper.attach("replica", HttpClient(network, name="primary", api_key=key))
        shipper.pump()
        # The resync carried them: the replica became the primary's records.
        assert replica.applier.bootstrap_applied > 0
        assert replica.store.stats.n_segments == 1
        assert replica.durability.wal.last_lsn == primary.durability.wal.last_lsn
        assert_replica_matches(primary, replica)

    def test_reship_is_idempotent(self, tmp_path):
        _, primary, (replica,) = make_pair(tmp_path)
        primary.replication.pump()  # the resync: frames follow from lsn 1
        primary.register_contributor("alice")
        primary.store.add_segment(make_segment())
        primary.store.flush()
        primary.durability.commit()
        primary.replication.pump()
        applied = replica.durability.wal.last_lsn
        # Re-send everything the replica already holds, as a lost ack would.
        frames = read_wal_frames(primary.durability.wal.path)
        assert replica.applier.apply_batch(ship(frames)) == {"AppliedLsn": applied}
        assert replica.store.stats.n_segments == 1
        assert replica.applier.frames_skipped == len(frames) == applied
        assert_replica_matches(primary, replica)

    def test_a_contributor_with_no_places_dumps_alike_everywhere(self, tmp_path):
        """Registration writes only what it journals.  A contributor who set
        no places (and no rules) has the same records at the primary, at
        its replica, and at the primary restarted from its own disk."""
        network, primary, (replica,) = make_pair(tmp_path)
        primary.replication.pump()  # the resync: what follows ships as frames
        primary.register_contributor("alice")
        primary.store.add_segment(make_segment())
        primary.store.flush()
        primary.durability.commit()
        primary.replication.pump()
        assert "alice" not in primary.places
        assert_replica_matches(primary, replica)
        primary.durability.close()
        network.unregister_host("primary")
        restarted = DataStoreService(
            "primary", network, directory=primary.directory, durable=True
        )
        assert_replica_matches(primary, restarted)

    def test_gap_is_rejected_and_resync_converges(self, tmp_path):
        _, primary, (replica,) = make_pair(tmp_path)
        primary.register_contributor("alice")
        for i in range(3):
            primary.store.add_segment(make_segment(start_ms=1297036800000 + i * 60_000))
        primary.store.flush()
        primary.durability.commit()
        frames = read_wal_frames(primary.durability.wal.path)
        assert len(frames) >= 3
        # Ship frame 1, then skip one: the gap must be answered in-band.
        first = replica.applier.apply_batch(ship(frames[:1], Resync=True, Bootstrap=[]))
        assert first == {"AppliedLsn": frames[0][0]}
        gapped = replica.applier.apply_batch(ship(frames[2:]))
        assert "Rejected" in gapped
        assert gapped["AppliedLsn"] == frames[0][0]
        # A resync at base 0 below the replica's log end replaces the state
        # with nothing, then takes the frames from lsn 1: it converges.
        done = replica.applier.apply_batch(ship(frames, Resync=True, Bootstrap=[]))
        assert done == {"AppliedLsn": frames[-1][0]}
        assert replica.store.stats.n_segments == 3
        assert_replica_matches(primary, replica)

    def test_an_own_append_on_the_replica_is_no_ack(self, tmp_path):
        """A record the replica journals itself takes the LSN its primary
        numbers next.  That frame is refused, not skipped as held and
        acked, and the resync after the refusal converges the replica."""
        _, primary, (replica,) = make_pair(tmp_path)
        primary.register_contributor("alice")
        primary.durability.commit()
        primary.replication.pump()
        held = replica.durability.wal.last_lsn
        assert held == primary.durability.wal.last_lsn
        replica.register_consumer("carol")  # an own record, at held + 1
        assert replica.durability.wal.last_lsn == held + 1
        primary.rules.add("alice", Rule(consumers=("bob",), action=ALLOW))
        primary.durability.commit()
        assert primary.durability.wal.last_lsn == held + 1
        link = primary.replication.links["replica-0"]
        assert primary.replication.pump() == 0
        assert link.resync and link.acked_lsn == 0
        assert primary.replication.pump() == 1
        assert link.acked_lsn == held + 1 and not link.resync
        assert replica.rules.version_of("alice") == 1 and "carol" not in replica.roles
        assert_replica_matches(primary, replica)

    def test_chain_restart_after_checkpoint_is_accepted(self, tmp_path):
        _, primary, (replica,) = make_pair(tmp_path)
        primary.register_contributor("alice")
        primary.store.add_segment(make_segment())
        primary.store.flush()
        primary.durability.commit()
        primary.replication.pump()
        before = replica.durability.wal.last_lsn
        # Checkpoint resets the WAL generation: LSNs keep counting, the
        # CRC chain restarts at zero.  Post-checkpoint writes must still
        # ship and apply.
        primary.checkpoint()
        primary.store.add_segment(make_segment(start_ms=1297036800000 + 3_600_000))
        primary.store.flush()
        primary.durability.commit()
        primary.replication.pump()
        assert replica.durability.wal.last_lsn > before
        assert replica.applier.chain == primary.durability.wal.chain
        assert replica.store.stats.n_segments == 2
        # A resync after the checkpoint chains from BaseChain: the next
        # frame is checked against the primary's chain, not taken on trust.
        primary.replication.links["replica-0"].resync = True
        primary.replication.pump()
        assert replica.applier.chain == primary.durability.wal.chain != 0
        primary.rules.add("alice", Rule(consumers=("bob",), action=ALLOW))
        primary.replication.pump()
        assert replica.durability.wal.last_lsn == primary.durability.wal.last_lsn
        assert_replica_matches(primary, replica)

    def test_one_batch_can_span_a_checkpoint_reset(self, tmp_path):
        """Why ``chain_prev`` rides the envelope per frame: frames buffered
        before a checkpoint and frames journaled after it leave in one
        ship, and the first of the new generation extends 0, not the
        header before it in the stream."""
        network, primary, (replica,) = make_pair(tmp_path)
        primary.register_contributor("alice")
        primary.durability.commit()
        primary.replication.pump()  # the link is live: what follows is a plain batch
        primary.store.add_segment(make_segment())
        primary.store.flush()
        primary.durability.commit()
        primary.checkpoint()
        primary.store.add_segment(make_segment(start_ms=1297036800000 + 3_600_000))
        primary.store.flush()
        primary.durability.commit()
        pending = list(primary.replication._buffer)
        chain_prevs = [bf.chain_prev for bf in pending]
        assert len(pending) >= 2 and chain_prevs[0] != 0 and 0 in chain_prevs[1:]
        ships = network.obs.metrics.counter_value("replication_ships_total", store="primary")
        shipped = network.obs.metrics.counter_value(
            "replication_frames_shipped_total", store="primary"
        )
        primary.replication.pump()
        m = network.obs.metrics
        assert m.counter_value("replication_ships_total", store="primary") == ships + 1
        assert m.counter_value(
            "replication_frames_shipped_total", store="primary"
        ) == shipped + len(pending)  # still counts frames, not streams
        assert replica.durability.wal.last_lsn == primary.durability.wal.last_lsn
        assert replica.applier.chain == primary.durability.wal.chain
        assert replica.store.stats.n_segments == 2
        # the two spans say what travelled, in counts
        spans = {s.name: s for s in network.obs.tracer.finished}
        stream = encode_ship(pending)["Stream"]
        assert spans["replication.ship"].attributes["frames"] == len(pending)
        assert spans["replication.ship"].attributes["bytes"] == len(stream)
        assert spans["replication.apply"].attributes["frames"] == len(pending)


class TestSemiSync:
    def test_write_rejected_until_replica_reachable(self, tmp_path):
        network, primary, (replica,) = make_pair(tmp_path)
        key = primary.register_contributor("alice")
        client = HttpClient(network, name="alice-phone", api_key=key)
        network.unregister_host("replica-0")
        with pytest.raises(ReplicationError):
            client.post(
                "https://primary/api/upload",
                {
                    "Contributor": "alice",
                    "Segments": [make_segment().to_json()],
                },
            )
        # The replica returns; the client's retry of the SAME upload must
        # converge: the first attempt already journaled + stored the
        # segment locally, so the retry dedupes instead of double-storing.
        network.register_host("replica-0", replica.router)
        body = client.post(
            "https://primary/api/upload",
            {"Contributor": "alice", "Segments": [make_segment().to_json()]},
        )
        assert body["Duplicates"] == 1
        client.post("https://primary/api/flush", {"Contributor": "alice"})
        # One copy on each side — not two: the retry deduped at ingestion.
        assert primary.store.stats.n_segments == 1
        assert replica.store.stats.n_segments == 1

    def test_identical_rule_retry_converges(self, tmp_path):
        network, primary, (replica,) = make_pair(tmp_path)
        key = primary.register_contributor("alice")
        client = HttpClient(network, name="alice-phone", api_key=key)
        rule = Rule(consumers=("bob",), action=ALLOW)
        network.unregister_host("replica-0")
        from repro.rules.parser import rule_to_json

        with pytest.raises(ReplicationError):
            client.post(
                "https://primary/api/rules/add",
                {"Contributor": "alice", "Rule": rule_to_json(rule)},
            )
        network.register_host("replica-0", replica.router)
        body = client.post(
            "https://primary/api/rules/add",
            {"Contributor": "alice", "Rule": rule_to_json(rule)},
        )
        assert body["Version"] == 1  # no spurious second bump
        assert len(primary.rules.rules_of("alice")) == 1
        assert len(replica.rules.rules_of("alice")) == 1

    def test_rule_remove_retry_converges(self, tmp_path):
        network, primary, (replica,) = make_pair(tmp_path)
        key = primary.register_contributor("alice")
        client = HttpClient(network, name="alice-phone", api_key=key)
        rule = Rule(consumers=("bob",), action=ALLOW)
        from repro.rules.parser import rule_to_json

        client.post(
            "https://primary/api/rules/add",
            {"Contributor": "alice", "Rule": rule_to_json(rule)},
        )
        network.unregister_host("replica-0")
        # The 503 leaves the rule already removed locally; the client's
        # retry of the SAME removal must converge, not 404 on its own
        # success.
        with pytest.raises(ReplicationError):
            client.post(
                "https://primary/api/rules/remove",
                {"Contributor": "alice", "RuleId": rule.rule_id},
            )
        assert primary.rules.rules_of("alice") == ()
        network.register_host("replica-0", replica.router)
        body = client.post(
            "https://primary/api/rules/remove",
            {"Contributor": "alice", "RuleId": rule.rule_id},
        )
        assert body["Version"] == 2  # add + remove; the retry bumped nothing
        assert primary.rules.rules_of("alice") == ()
        assert replica.rules.rules_of("alice") == ()

    def test_unacked_delete_is_still_audited(self, tmp_path):
        """The audit entry is written before the barrier, so a delete whose
        ack fails is on the owner's trail with its true count — and ships
        under the same acknowledgement as the deletion once a retry lands."""
        network, primary, (replica,) = make_pair(tmp_path)
        key = primary.register_contributor("alice")
        client = HttpClient(network, name="alice-phone", api_key=key)
        client.post(
            "https://primary/api/upload",
            {"Contributor": "alice", "Segments": [make_segment().to_json()]},
        )
        client.post("https://primary/api/flush", {"Contributor": "alice"})
        network.unregister_host("replica-0")
        with pytest.raises(ReplicationError):
            client.post("https://primary/api/delete", {"Contributor": "alice"})
        assert primary.store.stats.n_segments == 0  # the 503 removed the data
        (entry,) = primary.audit.trail_of("alice")
        assert entry.query["Delete"] is True and entry.segments_scanned == 1
        network.register_host("replica-0", replica.router)
        body = client.post("https://primary/api/delete", {"Contributor": "alice"})
        assert body == {"Deleted": 0}
        assert [r.segments_scanned for r in primary.audit.trail_of("alice")] == [1, 0]
        assert [r.to_json() for r in replica.audit.trail_of("alice")] == [
            r.to_json() for r in primary.audit.trail_of("alice")
        ]


class TestFencing:
    def test_stale_epoch_fences_old_primary(self, tmp_path):
        _, primary, (replica,) = make_pair(tmp_path)
        primary.register_contributor("alice")
        primary.durability.commit()
        primary.replication.pump()
        # Out-of-band promotion: the replica now follows epoch 2.
        replica.promote(2)
        primary.store.add_segment(make_segment())
        primary.store.flush()
        primary.durability.commit()
        primary.replication.pump()
        assert primary.role == ROLE_REPLICA
        assert primary.epoch >= 1

    def test_fenced_primary_rejects_writes(self, tmp_path):
        network, primary, (replica,) = make_pair(tmp_path)
        key = primary.register_contributor("alice")
        primary.durability.commit()
        primary.replication.pump()
        replica.promote(2)
        client = HttpClient(network, name="alice-phone", api_key=key)
        # The fencing write itself: a rules change journals a frame, the
        # barrier ships it, the ship is answered 409 — the request is
        # rejected and the store demotes itself on the spot.
        from repro.rules.parser import rule_to_json

        with pytest.raises(ReplicationError):
            client.post(
                "https://primary/api/rules/add",
                {
                    "Contributor": "alice",
                    "Rule": rule_to_json(Rule(consumers=("bob",), action=ALLOW)),
                },
            )
        assert primary.role == ROLE_REPLICA
        # Every later write bounces at the front door.
        with pytest.raises(NotPrimaryError):
            client.post(
                "https://primary/api/upload",
                {"Contributor": "alice", "Segments": [make_segment().to_json()]},
            )

    def test_replica_serves_no_reads(self, tmp_path):
        network, primary, (replica,) = make_pair(tmp_path)
        primary.register_contributor("alice")
        primary.store.add_segment(make_segment())
        primary.store.flush()
        primary.durability.commit()
        primary.replication.pump()
        probe_key = replica.keys.issue("probe")
        replica.roles["probe"] = "consumer"
        client = HttpClient(network, name="probe", api_key=probe_key)
        for path in ("/api/query", "/api/aggregate"):
            with pytest.raises(NotPrimaryError):
                client.post(
                    f"https://replica-0{path}",
                    {"Contributor": "alice", "Query": {}, "Aggregate": {}},
                )

    def test_stale_ship_raises_409_with_error_kind(self, tmp_path):
        _, primary, (replica,) = make_pair(tmp_path)
        replica.promote(5)
        with pytest.raises(StaleEpochError):
            replica.applier.apply_batch(ship())

    def test_a_restart_fences_at_the_epoch_its_records_follow(self, tmp_path):
        """The fencing epoch is in memory, the position's in the manifest: a
        restart starts the first at the second, so a ship from between
        them cannot replace records of the newer epoch."""
        network, primary, (replica,) = make_pair(tmp_path)
        primary.epoch = 3
        primary.replication.pump()
        held = replica.position()
        assert held == {"Epoch": 3, "Lsn": primary.durability.wal.last_lsn}
        replica.durability.close()
        network.unregister_host(replica.host)
        back = DataStoreService(replica.host, network, directory=replica.directory, durable=True)
        assert back.epoch == 3 and back.position() == held
        with pytest.raises(StaleEpochError):
            back.applier.apply_batch(ship(Epoch=2, Resync=True, BaseLsn=0, Bootstrap=[]))


class TestResyncBootstrap:
    """A resync is the primary's records: the replica becomes them.

    Whatever the primary's WAL still holds — a checkpoint truncates it —
    the resync carries every record at its base, and the replica drops
    what those records lack.
    """

    def test_attach_after_checkpoint_ships_full_state(self, tmp_path):
        network = Network()
        primary = DataStoreService(
            "primary", network, directory=str(tmp_path / "p"), durable=True
        )
        primary.register_contributor("alice")
        primary.rules.add("alice", Rule(consumers=("bob",), action=ALLOW))
        primary.store.add_segment(make_segment())
        primary.store.flush()
        primary.durability.commit()
        primary.checkpoint()  # WAL truncated: pre-checkpoint frames are gone
        primary.store.add_segment(make_segment(start_ms=1297036800000 + 3_600_000))
        primary.store.flush()
        primary.durability.commit()
        shipper = primary.enable_replication()
        replica = DataStoreService(
            "replica", network, directory=str(tmp_path / "r"), durable=True
        )
        replica.demote()
        key = replica.pair_primary()
        shipper.attach("replica", HttpClient(network, name="primary", api_key=key))
        shipper.pump()
        # The replica holds the checkpointed state, not just the WAL tail.
        assert replica.applier.bootstrap_applied > 0
        assert replica.store.stats.n_segments == primary.store.stats.n_segments == 2
        assert replica.rules.version_of("alice") == primary.rules.version_of("alice")
        assert replica.roles.get("alice") == "contributor"
        assert replica.durability.wal.last_lsn == primary.durability.wal.last_lsn
        assert shipper.lag_of("replica") == 0
        assert_replica_matches(primary, replica)

    def test_the_replica_becomes_the_primary_s_records(self, tmp_path):
        """What the primary does not hold goes — a segment, a principal
        with her credential, a rule set, places — and the replica's disk
        says so at once; its own pairing and its audit trail stay."""
        network, primary, (replica,) = make_pair(tmp_path)
        primary.register_contributor("alice")
        primary.rules.add("alice", Rule(consumers=("bob",), action=ALLOW))
        primary.replication.pump()
        assert_replica_matches(primary, replica)
        # State only the replica holds: an ex-primary's refused writes.
        replica.register_contributor("carol")
        replica.rules.add("carol", Rule(consumers=("bob",), action=ALLOW))
        replica.set_places("alice", {"home": HOME})
        replica.store.add_segment(make_segment())
        replica.store.flush()
        read = replica.audit.record_access(
            principal="bob", contributor="alice", query={}, raw_access=False, segments_scanned=1
        )
        primary.replication.links["replica-0"].resync = True
        primary.replication.pump()
        assert replica.durability.wal.last_lsn == primary.durability.wal.last_lsn
        assert "carol" not in replica.roles and "carol" not in replica.credentials
        assert "carol" not in replica.rules.contributors() and replica.places == {}
        assert replica.store.stats.n_segments == 0
        assert replica.roles[PRIMARY_PRINCIPAL] == "primary"
        assert [r.to_json() for r in replica.audit.trail_of("alice")] == [read.to_json()]
        primary.audit.restore([read])  # the one record a resync merges, not replaces
        assert_replica_matches(primary, replica)
        # Checkpointed: nothing of the resync is in the replica's log, and
        # a restart of it holds the same records.
        assert read_wal_frames(replica.durability.wal.path) == []
        replica.durability.close()
        network.unregister_host("replica-0")
        restarted = DataStoreService(
            "replica-0", network, directory=replica.directory, durable=True
        )
        assert restarted.recovery_report.clean
        assert_replica_matches(primary, restarted)

    def test_a_bootstrap_that_holds_no_records_is_refused_whole(self, tmp_path):
        _, primary, (replica,) = make_pair(tmp_path)
        primary.register_contributor("alice")
        primary.replication.pump()
        applied = replica.durability.wal.last_lsn
        good = {"Op": "role", "Data": {"Principal": "eve", "Role": "consumer"}}
        for bootstrap in ({}, [good, {"Op": "teleport", "Data": {}}], [good, {"Op": "role"}],
                          [good, ["role", {}]]):
            with pytest.raises(StorageError):
                replica.applier.apply_batch(ship(Resync=True, BaseLsn=9, Bootstrap=bootstrap))
            assert "alice" in replica.roles and "eve" not in replica.roles
            assert replica.durability.wal.last_lsn == applied

    def test_resync_base_without_bootstrap_is_rejected(self, tmp_path):
        _, primary, (replica,) = make_pair(tmp_path)
        reply = replica.applier.apply_batch(ship(Resync=True, BaseLsn=7))
        assert "Rejected" in reply
        assert reply["AppliedLsn"] == 0

    def test_mid_stream_first_frame_is_rejected(self, tmp_path):
        # A replica that has installed no resync since it started refuses
        # every other batch: adopting a stream mid-way would leave a hole
        # below its first frame on a promotion candidate.
        _, primary, (replica,) = make_pair(tmp_path)
        primary.register_contributor("alice")
        primary.store.add_segment(make_segment())
        primary.store.flush()
        primary.durability.commit()
        frames = read_wal_frames(primary.durability.wal.path)
        assert len(frames) >= 2
        for batch in (frames[1:], frames):  # lsn 1 is no exception
            reply = replica.applier.apply_batch(ship(batch))
            assert reply == {"AppliedLsn": 0, "Rejected": "no resync installed since this store started"}
        assert replica.applier.frames_applied == 0 and replica.store.stats.n_segments == 0

    @pytest.mark.parametrize(
        "payload", [b"[1,2]", b'{"Data":{}}', b'"rules"', b"\xff\xfe", b"{not json"]
    )
    def test_checksummed_payload_that_is_no_record_is_corruption(self, tmp_path, payload):
        """CRC-, chain- and LSN-valid bytes that do not parse to a record
        with an ``Op`` get the typed error ``scan_wal`` gives the same
        bytes, before anything is installed or journaled."""
        from repro.exceptions import CorruptRecordError
        from repro.storage.wal import encode_frame

        _, _, (replica,) = make_pair(tmp_path)
        frame, _ = encode_frame(1, 0, payload)
        with pytest.raises(CorruptRecordError, match="undecodable payload"):
            replica.applier.apply_batch(ship([(1, frame, 0)], Resync=True, Bootstrap=[]))
        assert replica.durability.wal.last_lsn == 0 and replica.applier.chain == 0
        assert replica.durability.wal.last_lsn == 0
        assert read_wal_frames(replica.durability.wal.path) == []


class TestLaggingReplica:
    def test_dead_replica_stops_pinning_the_buffer(self, tmp_path):
        from repro.storage.replication import LAGGING_AFTER_FAILURES

        network, primary, (replica,) = make_pair(tmp_path)
        primary.register_contributor("alice")
        primary.durability.commit()
        primary.replication.pump()
        network.unregister_host("replica-0")
        for i in range(LAGGING_AFTER_FAILURES + 1):
            primary.store.add_segment(make_segment(start_ms=1297036800000 + i * 60_000))
            primary.store.flush()
            primary.durability.commit()
            primary.replication.pump()
        link = primary.replication.links["replica-0"]
        assert link.resync and not link.alive
        # The buffer no longer accumulates on behalf of the dead replica.
        assert primary.replication._buffer == []
        # When it returns, a resync converges it.
        network.register_host("replica-0", replica.router)
        primary.replication.pump()
        assert replica.durability.wal.last_lsn == primary.durability.wal.last_lsn
        assert replica.store.stats.n_segments == primary.store.stats.n_segments
        assert_replica_matches(primary, replica)


class TestReadWalFrames:
    def test_stops_at_torn_tail(self, tmp_path):
        path = str(tmp_path / "x.wal")
        wal = WriteAheadLog(path)
        wal.append("rules", {"Contributor": "a"}, force_sync=True)
        wal.append("rules", {"Contributor": "b"}, force_sync=True)
        wal.close()
        with open(path, "ab") as fh:
            fh.write(b"\x01\x02\x03")  # torn partial frame
        frames = read_wal_frames(path)
        assert [lsn for lsn, _, _ in frames] == [1, 2]

    def test_stops_at_corruption(self, tmp_path):
        path = str(tmp_path / "x.wal")
        wal = WriteAheadLog(path)
        wal.append("rules", {"Contributor": "a"}, force_sync=True)
        wal.append("rules", {"Contributor": "b"}, force_sync=True)
        wal.close()
        data = bytearray(open(path, "rb").read())
        data[len(data) // 2] ^= 0xFF  # flip a bit inside frame 2
        open(path, "wb").write(bytes(data))
        frames = read_wal_frames(path)
        assert len(frames) < 2  # never ship bytes we cannot vouch for
