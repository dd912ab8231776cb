"""Chaos suite: storage crashes × network faults across failover.

Composes the network fault plan with the storage fault injector over a
live replicated deployment.  These are the hand-composed scenarios the
seeded fleet simulator (``repro.conformance.sim``) draws at random; here
each composition runs on purpose, with its own assertions.  The
properties under test are the replication contract, not any particular
failure:

* **zero committed-write loss** — anything a semi-sync store ever
  acknowledged is readable after the primary dies at *any* WAL or
  checkpoint crash point;
* **convergence** — a partition during shipment never duplicates or
  forks replica state once healed, and a replica that dies at any crash
  point of its resync restarts, rejoins and holds its primary's records;
* **promotion is all-or-nothing** — a candidate that crashes mid-promote
  stalls the set until the next heartbeat elects again; the directory
  only ever points at a store that completed promotion, and fail-closed
  denies survive the stall.
"""

import pytest

from tests.conftest import MONDAY, make_segment
from repro.conformance.generators import Trial
from repro.conformance.invariants import check_release
from repro.conformance.sim import RESYNC_POINTS, assert_replica_matches
from repro.core.system import SensorSafeSystem
from repro.exceptions import ReplicationError, SensorSafeError, TransportError
from repro.net.faults import FaultPlan
from repro.rules.model import ALLOW, Rule
from repro.server.datastore_service import DataStoreService
from repro.storage import CRASH_POINTS, StorageFaultPlan
from repro.storage.wal import WalScan, read_wal

ALLOW_BOB = Rule(consumers=("bob",), action=ALLOW)
HOUR = 3_600_000


def sample_count(pieces):
    return sum(len(p.segment.sample_times()) for p in pieces if p.segment is not None)


def build(tmp_path, *, n_replicas=1, seed=11):
    system = SensorSafeSystem(seed=seed)
    primary = system.create_replicated_store(
        "alice-store", directory=str(tmp_path), n_replicas=n_replicas
    )
    alice = system.add_contributor("alice", store=primary)
    bob = system.add_consumer("bob")
    bob.add_contributors(["alice"])
    alice.add_rule(ALLOW_BOB)
    alice.upload_segments([make_segment()])
    alice.flush()
    return system, alice, bob


def arm(service, point, seed=5):
    """Arm a store's storage injector to die at ``point``; returns the plan."""
    plan = StorageFaultPlan(seed=seed)
    if point.endswith(".write"):
        plan.add_torn_write(point)  # the ".write" points tear, then die
    else:
        plan.add_crash(point)
    service.durability.faults = plan
    service.durability.wal.faults = plan
    return plan


def fail_over(system, set_name="alice-store"):
    report = None
    for _ in range(system.broker.failover.miss_threshold):
        report = system.broker.failover.heartbeat()
    return report[set_name]["FailedOver"]


class TestCrashPointSweep:
    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_primary_dies_at_every_point_without_committed_loss(
        self, tmp_path, point
    ):
        system, alice, bob = build(tmp_path)
        committed = sample_count(bob.fetch("alice"))
        assert committed > 0
        primary = system.stores["alice-store"]
        arm(primary, point)
        # Drive a write burst, a force-synced rules append, and a
        # checkpoint so every armed point — WAL append, append/commit
        # fsync, snapshot, manifest, WAL reset — is hit.
        crashed = False
        try:
            alice.upload_segments([make_segment(start_ms=MONDAY + HOUR)])
            alice.flush()  # a returned ack ⇒ a replica holds the frames
            committed += 16
            alice.add_rule(Rule(consumers=("carol",), action=ALLOW))
            primary.checkpoint()
        except SensorSafeError:
            crashed = True
        assert crashed, f"crash point {point!r} never fired"
        system.network.unregister_host("alice-store")
        result = fail_over(system)
        assert result["Promoted"] == "alice-store-r1"
        after = bob.fetch("alice")
        # Every acknowledged sample is still readable; nothing appears
        # twice (the promoted store holds at most the two real segments).
        assert sample_count(after) >= committed
        assert sample_count(after) <= 32
        promoted = system.stores["alice-store-r1"]
        assert promoted.store.stats.n_segments <= 2
        # Releases from the promoted store still conform to the oracle's
        # invariants for the segment that predates the chaos.
        seg1 = make_segment()
        pieces1 = [p for p in after if p.interval.start < MONDAY + HOUR]
        trial = Trial(seed=f"chaos-{point}", rules=[ALLOW_BOB], segments=[seg1])
        assert check_release(trial, seg1, pieces1) == []

    @pytest.mark.parametrize("point", RESYNC_POINTS)
    def test_replica_dies_at_every_point_of_its_resync(self, tmp_path, point):
        """A resync replaces the replica's state and checkpoints it.  Dying
        anywhere in that leaves a directory the restart recovers, and the
        rejoin's resync converges it: the primary's records, its applied
        LSN at the primary's tail, and nothing acknowledged lost."""
        system, alice, bob = build(tmp_path)
        primary, replica = system.stores["alice-store"], system.stores["alice-store-r1"]
        committed = primary.store.stats.n_samples
        plan = arm(replica, point)
        # What a rejected batch or a lagging link does.  The segment frame
        # the replica journaled rides its group window, so the resync's
        # checkpoint passes the commit fsync too.
        primary.replication.links["alice-store-r1"].resync = True
        primary.replication.pump()
        assert [e.point for e in plan.log if e.outcome != "pass"] == [point]

        # The process is gone: what its handle wrote is what is on disk.
        replica.durability.wal.faults = None
        replica.durability.close()
        system.network.unregister_host("alice-store-r1")
        back = DataStoreService(
            "alice-store-r1", system.network, directory=replica.directory, durable=True,
            seed=system.seed,
        )
        system.stores["alice-store-r1"] = back
        assert system.reconcile(back)["failed"] == 0
        system.broker.failover.heartbeat()
        assert_replica_matches(primary, back)
        assert back.durability.wal.last_lsn == primary.durability.wal.last_lsn

        system.network.unregister_host("alice-store")
        assert fail_over(system)["Promoted"] == "alice-store-r1"
        assert sample_count(bob.fetch("alice")) == committed


class TestPartitionDuringShipment:
    def test_healed_partition_converges_without_duplicates(self, tmp_path):
        system, alice, bob = build(tmp_path)
        system.broker.failover.heartbeat()
        primary = system.stores["alice-store"]
        replica = system.stores["alice-store-r1"]
        plan = FaultPlan(seed=11)
        plan.add_partition("mid-ship", {"alice-store"}, {"alice-store-r1"})
        system.install_faults(plan)
        # No replica acks while ships bounce, so the writes are refused
        # (the client's retries too); the primary applied them anyway.
        with pytest.raises(ReplicationError):
            alice.upload_segments([make_segment(start_ms=MONDAY + i * HOUR) for i in range(1, 4)])
        assert replica.store.stats.n_segments == 1  # stuck at pre-partition
        # The primary moved past its replica, so the heal has work to do.
        assert primary.durability.wal.last_lsn > replica.durability.wal.last_lsn
        assert primary.store.stats.n_segments > 1
        plan.heal("mid-ship")
        system.broker.failover.heartbeat()  # the tick pumps the shipper
        assert replica.durability.wal.last_lsn == primary.durability.wal.last_lsn
        assert replica.store.stats.n_segments == primary.store.stats.n_segments
        assert_replica_matches(primary, replica)
        # A second resync-free pump ships nothing new and changes nothing.
        skipped_before = replica.applier.frames_skipped
        primary.replication.pump()
        assert replica.store.stats.n_segments == primary.store.stats.n_segments
        assert replica.applier.frames_skipped == skipped_before

    def test_flaky_ship_link_retries_idempotently(self, tmp_path):
        system, alice, bob = build(tmp_path)
        plan = FaultPlan(seed=11)
        # The replica answers, but its first few acks are lost: the
        # shipper must re-send and the applier must skip what it holds.
        plan.add_response_error(
            "alice-store-r1", path="/api/replicate/append", fail_first=2
        )
        system.install_faults(plan)
        alice.upload_segments([make_segment(start_ms=MONDAY + HOUR)])
        alice.flush()
        for _ in range(4):
            system.broker.failover.heartbeat()
        replica = system.stores["alice-store-r1"]
        primary = system.stores["alice-store"]
        assert replica.durability.wal.last_lsn == primary.durability.wal.last_lsn
        assert replica.store.stats.n_segments == primary.store.stats.n_segments
        assert_replica_matches(primary, replica)


class TestCrashDuringPromotion:
    def test_crashing_candidate_stalls_promotion_and_fencing_survives(self, tmp_path):
        system, alice, bob = build(tmp_path, n_replicas=2)
        system.broker.failover.heartbeat()
        # A revocation the replicas never see: it reaches the broker's
        # mirror, no replica acks it, then the primary dies.
        plan = FaultPlan(seed=11)
        plan.add_partition(
            "ship-lost", {"alice-store"}, {"alice-store-r1", "alice-store-r2"}
        )
        system.install_faults(plan)
        with pytest.raises(ReplicationError):
            alice.replace_rules([])
        assert system.broker.registry.get("alice").rules_version > 1
        system.network.unregister_host("alice-store")
        system.install_faults(None)
        # The elected candidate (r1, by tie-break) crashes while journaling
        # its promotion.  Nothing is promoted that tick: the broker does not
        # fall through to another candidate, and the directory stays put.
        r1 = system.stores["alice-store-r1"]
        crash = StorageFaultPlan(seed=5)
        crash.add_crash("wal.append")
        r1.durability.faults = crash
        r1.durability.wal.faults = crash
        assert fail_over(system)["Promoted"] is None
        assert system.broker.registry.get("alice").host == "alice-store"
        with pytest.raises(TransportError):
            bob.fetch("alice")
        # The next tick elects again, above every epoch a member reached,
        # and exactly one member is primary: the one the directory names.
        group = system.broker.failover.sets["alice-store"]
        epochs = [system.stores[host].epoch for host in group.replicas]
        result = system.broker.failover.heartbeat()["alice-store"]["FailedOver"]
        promoted = result["Promoted"]
        assert result["Epoch"] > max(epochs)
        assert [h for h in group.members() if system.stores[h].is_primary] == [promoted]
        assert system.broker.registry.get("alice").host == promoted
        assert "alice" in result["FailClosed"]
        # The deny is on the promoted store's disk, not only in its memory:
        # the crashed append left nothing the re-election could skip.
        mirrored = system.broker.registry.get("alice").rules_version
        denies = [
            data for _lsn, op, data in read_wal(WalScan(system.stores[promoted].durability.wal.path))
            if op == "rules" and data["Contributor"] == "alice" and not data["Rules"]
        ]
        assert denies and denies[-1]["Version"] >= mirrored
        # Fail-closed held across the stall: the revoked allow rule the
        # replicas still carry releases nothing.
        assert bob.fetch("alice") == []
