"""Broker-driven failover: detection, promotion, fencing, re-homing.

The PR 6 tentpole end-to-end: a replicated store loses its primary, the
broker's heartbeat loop notices, promotes the most-caught-up replica at a
bumped epoch, re-points the directory, and privacy stays fail-closed
throughout — a promoted replica whose rules lag the broker's mirror
denies by default until the owner re-publishes.
"""

import pytest

from tests.conftest import MONDAY, assert_replica_matches, make_segment
from repro.conformance.generators import Trial
from repro.conformance.invariants import check_release
from repro.core.system import SensorSafeSystem
from repro.exceptions import ReplicationError, StorageError, TransportError
from repro.net.faults import FaultPlan
from repro.rules.model import ALLOW, Rule
from repro.server.datastore_service import ROLE_REPLICA

ALLOW_BOB = Rule(consumers=("bob",), action=ALLOW)


def replicated_system(tmp_path, *, n_replicas=1):
    """System + replicated alice-store + contributor alice + consumer bob."""
    system = SensorSafeSystem(seed=7)
    primary = system.create_replicated_store(
        "alice-store", directory=str(tmp_path), n_replicas=n_replicas
    )
    alice = system.add_contributor("alice", store=primary)
    bob = system.add_consumer("bob")
    bob.add_contributors(["alice"])
    alice.add_rule(ALLOW_BOB)
    return system, alice, bob


def kill(system, host):
    system.network.unregister_host(host)


def detect_and_fail_over(system, set_name="alice-store"):
    """Heartbeat until the dead primary crosses the miss threshold."""
    report = None
    for _ in range(system.broker.failover.miss_threshold):
        report = system.broker.failover.heartbeat()
    return report[set_name]["FailedOver"]


class TestTheBarrierFollowsTheJournal:
    """A handler not declared ``writes`` that journals a record still ships
    it under its own acknowledgement."""

    @staticmethod
    def register(system, host, name, password="pw"):
        body = {"Username": name, "Role": "contributor", "Password": password}
        return system.network.request("POST", f"https://{host}/api/register", body)

    def test_a_registration_survives_a_failover(self, tmp_path):
        system, _alice, _bob = replicated_system(tmp_path)
        assert self.register(system, "alice-store", "carol", "carol-pw").status == 200
        kill(system, "alice-store")
        assert detect_and_fail_over(system)["Promoted"] == "alice-store-r1"
        promoted = system.stores["alice-store-r1"]
        assert promoted.roles.get("carol") == "contributor"
        assert self.register(system, "alice-store-r1", "carol", "carol-pw").status == 200

    def test_a_journaling_handler_is_refused_during_a_link_gap(self, tmp_path):
        system, _alice, _bob = replicated_system(tmp_path)
        plan = FaultPlan(seed=7)
        plan.add_partition("gap", {"alice-store"}, {"alice-store-r1"})
        system.install_faults(plan)
        refused = self.register(system, "alice-store", "carol")
        assert refused.status == 503
        assert refused.body["ErrorKind"] == ReplicationError.__name__
        # A re-key journals nothing, so it is answered in the same gap.
        assert self.register(system, "alice-store", "alice").status == 200

    def test_a_promotion_that_journals_a_deny_is_answered_before_its_link(self, tmp_path):
        """A promotion is served by a replica: the fail-closed deny it
        journals before any survivor is linked does not hold its answer."""
        system, _alice, _bob = replicated_system(tmp_path)
        kill(system, "alice-store")
        promoted = system.stores["alice-store-r1"]
        before = promoted.durability.wal.last_lsn
        body = {"Epoch": 2, "Replicated": True, "RuleVersions": {"alice": 99},
                "ApiKey": system.broker.store_keys["alice-store-r1"]}  # fmt: skip
        reply = system.network.request("POST", "https://alice-store-r1/api/promote", body)
        assert reply.status == 200 and reply.body["FailClosed"] == ["alice"]
        assert promoted.durability.wal.last_lsn > before and promoted.replication.links == {}


class TestDetectionAndPromotion:
    def test_heartbeat_promotes_after_miss_threshold(self, tmp_path):
        system, alice, bob = replicated_system(tmp_path)
        alice.upload_segments([make_segment()])
        alice.flush()
        kill(system, "alice-store")
        # One miss is not death: no promotion yet.
        first = system.broker.failover.heartbeat()
        assert first["alice-store"]["FailedOver"] is None
        second = system.broker.failover.heartbeat()
        result = second["alice-store"]["FailedOver"]
        assert result["Promoted"] == "alice-store-r1"
        assert result["Epoch"] == 2
        assert system.broker.registry.get("alice").host == "alice-store-r1"
        assert system.stores["alice-store-r1"].is_primary

    def test_most_caught_up_replica_wins(self, tmp_path):
        system, alice, bob = replicated_system(tmp_path, n_replicas=2)
        alice.upload_segments([make_segment()])
        alice.flush()
        system.broker.failover.heartbeat()  # both replicas converge
        # r2 falls behind: the primary cannot ship to it any more.
        plan = FaultPlan(seed=7)
        plan.add_partition("lag-r2", {"alice-store"}, {"alice-store-r2"})
        system.install_faults(plan)
        alice.upload_segments([make_segment(start_ms=MONDAY + 3_600_000)])
        alice.flush()
        r1, r2 = system.stores["alice-store-r1"], system.stores["alice-store-r2"]
        assert r1.durability.wal.last_lsn > r2.durability.wal.last_lsn  # r2 lags
        kill(system, "alice-store")
        result = detect_and_fail_over(system)
        assert result["Promoted"] == "alice-store-r1"
        # Promotion re-wires shipping, so the laggard catches up *from r1*
        # (the heartbeat tick is the replication tick).
        system.broker.failover.heartbeat()
        assert r2.durability.wal.last_lsn == r1.durability.wal.last_lsn
        assert_replica_matches(r1, r2)

    def test_semi_sync_is_the_only_mode(self, tmp_path):
        system = SensorSafeSystem(seed=7)
        with pytest.raises(StorageError):
            system.create_replicated_store("alice-store", directory=str(tmp_path), mode="async")
        assert "alice-store" not in system.stores

    def test_no_reachable_replica_means_no_promotion(self, tmp_path):
        system, alice, bob = replicated_system(tmp_path)
        alice.upload_segments([make_segment()])
        alice.flush()
        kill(system, "alice-store")
        kill(system, "alice-store-r1")
        result = detect_and_fail_over(system)
        assert result["Promoted"] is None
        # Fail-closed: the directory still points at the dead primary and
        # data requests keep failing rather than being served stale.
        assert system.broker.registry.get("alice").host == "alice-store"
        with pytest.raises(TransportError):
            bob.fetch("alice")


class TestZeroCommittedWriteLoss:
    def test_semi_sync_failover_loses_nothing_acknowledged(self, tmp_path):
        system, alice, bob = replicated_system(tmp_path)
        for i in range(3):
            alice.upload_segments([make_segment(start_ms=MONDAY + i * 3_600_000)])
            alice.flush()  # semi-sync: the ack means a replica holds it
        before = bob.fetch("alice")
        samples_before = sum(len(r.segment.sample_times()) for r in before)
        assert samples_before > 0
        kill(system, "alice-store")
        result = detect_and_fail_over(system)
        assert result["Promoted"] == "alice-store-r1"
        # Same consumer handle, zero reconfiguration: re-resolves via the
        # broker and reads everything that was ever acknowledged.
        after = bob.fetch("alice")
        samples_after = sum(len(r.segment.sample_times()) for r in after)
        assert samples_after == samples_before

    def test_releases_stay_conformant_after_promotion(self, tmp_path):
        system, alice, bob = replicated_system(tmp_path)
        segment = make_segment(n=50)
        alice.upload_segments([segment])
        alice.flush()
        kill(system, "alice-store")
        detect_and_fail_over(system)
        pieces = bob.fetch("alice")
        assert pieces  # rules survived: the allow still releases
        trial = Trial(seed="failover", rules=[ALLOW_BOB], segments=[segment])
        assert check_release(trial, segment, pieces) == []


class TestRevocationFencing:
    def test_stale_replica_promotion_fails_closed(self, tmp_path):
        """THE fencing test: a revocation the replica never saw must win.

        Alice revokes Bob's access; the revocation reaches the broker's
        mirror but — thanks to a partition — never the replica.  The
        primary then dies.  If promotion simply trusted the replica's
        replicated rules, Bob would read under the *revoked* allow rule.
        The fail-closed contract instead denies Alice's data entirely
        until she re-publishes.  Removing the deny in
        :meth:`DataStoreService.promote` makes this test fail.
        """
        system, alice, bob = replicated_system(tmp_path)
        alice.upload_segments([make_segment()])
        alice.flush()
        system.broker.failover.heartbeat()
        replica = system.stores["alice-store-r1"]
        assert replica.rules.version_of("alice") == 1  # allow is replicated
        # Replica stops hearing from the primary...
        plan = FaultPlan(seed=7)
        plan.add_partition("ship-lost", {"alice-store"}, {"alice-store-r1"})
        system.install_faults(plan)
        # ...then alice revokes: v2 reaches the broker mirror (eager
        # push), but never the replica, so no replica acks it and the
        # owner is told it was refused.  The primary applied it anyway.
        with pytest.raises(ReplicationError):
            alice.replace_rules([])
        # The client's retries re-sent it, each a new version: the mirror
        # is ahead of the replica, whatever number it reached.
        assert system.broker.registry.get("alice").rules_version > 1
        assert replica.rules.version_of("alice") == 1  # stale allow
        kill(system, "alice-store")
        system.install_faults(None)
        result = detect_and_fail_over(system)
        assert result["Promoted"] == "alice-store-r1"
        assert "alice" in result["FailClosed"]
        # The promoted store denies by default: no data for bob, even
        # though its replicated rules still contain the old allow.
        assert bob.fetch("alice") == []
        # The owner re-publishes at the new primary and sharing resumes
        # under the *new* rules — the only path out of fail-closed.
        alice = system.repoint_contributor("alice")
        assert alice.store_host == "alice-store-r1"
        alice.replace_rules([ALLOW_BOB])
        assert len(bob.fetch("alice")) > 0

    def test_a_dropped_push_does_not_undo_a_revocation_at_failover(self, tmp_path):
        """The eager push is only a hint.  With every ``/api/sync`` dropped,
        alice's revocation still answers 200 and ships under its semi-sync
        ack, so the replica holds it before any heartbeat; promotion then
        serves bob nothing, though the broker's mirror never saw the push."""
        system, alice, bob = replicated_system(tmp_path)
        alice.upload_segments([make_segment()])
        alice.flush()
        assert len(bob.fetch("alice")) > 0
        plan = FaultPlan(seed=7)
        plan.add_drop("broker", path="/api/sync")
        system.install_faults(plan)
        assert alice.replace_rules([]) == 2
        replica = system.stores["alice-store-r1"]
        assert replica.rules.version_of("alice") == 2
        assert system.broker.registry.get("alice").rules_version == 1
        assert bob.fetch("alice") == []
        kill(system, "alice-store")
        system.install_faults(None)
        result = detect_and_fail_over(system)
        assert result["Promoted"] == "alice-store-r1"
        assert bob.fetch("alice") == []
        assert system.broker.registry.get("alice").rules_version == 2

    def test_fenced_ex_primary_rejoins_as_replica(self, tmp_path):
        system, alice, bob = replicated_system(tmp_path)
        alice.upload_segments([make_segment()])
        alice.flush()
        old_primary = system.stores["alice-store"]
        kill(system, "alice-store")
        detect_and_fail_over(system)
        # The machine comes back with its old (epoch-1) state and rejoins.
        system.network.register_host("alice-store", old_primary.router)
        report = system.broker.failover.rejoin("alice-store", "alice-store")
        assert report["Rejoined"] == "alice-store"
        assert report["Epoch"] == 2
        assert report["Set"] == "alice-store"
        assert report["TraceId"]  # the rejoin audit record is traceable
        assert old_primary.role == ROLE_REPLICA
        assert not old_primary.is_primary
        # New writes at the promoted primary now replicate to it.
        alice = system.repoint_contributor("alice")
        alice.upload_segments([make_segment(start_ms=MONDAY + 7_200_000)])
        alice.flush()
        new_primary = system.stores["alice-store-r1"]
        assert (
            old_primary.durability.wal.last_lsn
            == new_primary.durability.wal.last_lsn
        )
        assert old_primary.store.stats.n_segments == new_primary.store.stats.n_segments
        assert_replica_matches(new_primary, old_primary)

    def test_rejoin_with_surviving_replica_receives_full_history(self, tmp_path):
        # Regression: with a surviving replica the promoted primary's
        # shipper already exists and its buffer has been trimmed to empty,
        # so the rejoiner's resync used to ship zero frames — the rejoined
        # store silently skipped the new primary's earlier history while
        # staying promotion-eligible.  A resync is the primary's records,
        # whatever its buffer holds.
        system, alice, bob = replicated_system(
            tmp_path, n_replicas=2
        )
        alice.upload_segments([make_segment()])
        alice.flush()
        old_primary = system.stores["alice-store"]
        kill(system, "alice-store")
        result = detect_and_fail_over(system)
        assert result["Promoted"] == "alice-store-r1"
        new_primary = system.stores["alice-store-r1"]
        # Writes at the new primary land while the old one is still away;
        # once r2 has acked them the shipper's buffer is trimmed.
        alice = system.repoint_contributor("alice")
        alice.upload_segments([make_segment(start_ms=MONDAY + 7_200_000)])
        alice.flush()
        system.broker.failover.heartbeat()
        system.network.register_host("alice-store", old_primary.router)
        system.broker.failover.rejoin("alice-store", "alice-store")
        # The rejoined store holds the new primary's WHOLE history, not
        # just frames shipped after it returned.
        assert (
            old_primary.durability.wal.last_lsn
            == new_primary.durability.wal.last_lsn
        )
        assert old_primary.store.stats.n_segments == new_primary.store.stats.n_segments
        assert old_primary.store.stats.n_samples == new_primary.store.stats.n_samples
        assert_replica_matches(new_primary, old_primary)
        assert_replica_matches(new_primary, system.stores["alice-store-r2"])
        # And it is safe to promote again: a second failover must not
        # shrink what bob can read.
        before = sum(len(r.segment.sample_times()) for r in bob.fetch("alice"))
        kill(system, "alice-store-r1")
        second = detect_and_fail_over(system)
        assert second["Promoted"] is not None
        after = sum(len(r.segment.sample_times()) for r in bob.fetch("alice"))
        assert after == before > 0


    def test_a_re_promoted_ex_primary_resyncs_every_survivor(self, tmp_path):
        """An ex-primary that rejoined without restarting still has the
        shipper and links of its first term.  Promoted again, it starts a
        new link to each survivor, so each is resynced to its records; a
        link kept from the first term shipped frames the survivor, resynced
        by another primary since, refused, and the next semi-sync write
        failed."""
        system, alice, bob = replicated_system(tmp_path, n_replicas=2)
        alice.upload_segments([make_segment()])
        alice.flush()
        old_primary = system.stores["alice-store"]
        kill(system, "alice-store")
        assert detect_and_fail_over(system)["Promoted"] == "alice-store-r1"
        system.network.register_host("alice-store", old_primary.router)
        system.broker.failover.rejoin("alice-store", "alice-store")
        alice = system.repoint_contributor("alice")
        for hour in (1, 2, 3):
            alice.upload_segments([make_segment(start_ms=MONDAY + hour * 3_600_000)])
            alice.flush()
        kill(system, "alice-store-r1")
        assert detect_and_fail_over(system)["Promoted"] == "alice-store"
        alice = system.repoint_contributor("alice")
        alice.upload_segments([make_segment(start_ms=MONDAY + 9 * 3_600_000)])
        alice.flush()
        r2 = system.stores["alice-store-r2"]
        assert r2.durability.wal.last_lsn == old_primary.durability.wal.last_lsn
        assert_replica_matches(old_primary, r2)


def sample_count(pieces):
    return sum(len(p.segment.sample_times()) for p in pieces if p.segment is not None)


class TestAcknowledgedWritesSurvivePromotion:
    """A write is acknowledged once one replica holds it, and a promotion
    picks among every replica: the one that acked is always a candidate.
    Each test below failed while a set could ship ``async``, ack below its
    replica count, or fall through to the next candidate when a promote
    failed."""

    def test_a_revocation_no_replica_holds_is_refused(self, tmp_path):
        """Repro (a): with the primary cut off from its replica and the
        rule push dropped, the revocation reached only the primary.  It
        used to answer 200, and after failover bob read again."""
        system, alice, bob = replicated_system(tmp_path)
        alice.upload_segments([make_segment()])
        alice.flush()
        assert len(bob.fetch("alice")) == 1
        plan = FaultPlan(seed=7)
        plan.add_partition("ship-lost", {"alice-store"}, {"alice-store-r1"})
        plan.add_drop("broker", path="/api/sync")
        system.install_faults(plan)
        with pytest.raises(ReplicationError):
            alice.replace_rules([])
        kill(system, "alice-store")
        system.install_faults(None)
        assert detect_and_fail_over(system)["Promoted"] == "alice-store-r1"
        # The owner was told no; her retry at the promoted store is acked.
        alice = system.repoint_contributor("alice")
        alice.replace_rules([])
        assert bob.fetch("alice") == []

    def test_promotion_waits_for_the_replica_that_acked(self, tmp_path):
        """Repro (b): r2 acks the revocation while r1 lags, and the push
        is dropped.  The broker reaching only r1 used to promote it, and
        bob read under the revoked allow."""
        system, alice, bob = replicated_system(tmp_path, n_replicas=2)
        alice.upload_segments([make_segment()])
        alice.flush()
        system.broker.failover.heartbeat()
        plan = FaultPlan(seed=7)
        plan.add_partition("r1-lags", {"alice-store"}, {"alice-store-r1"})
        plan.add_drop("broker", path="/api/sync")
        system.install_faults(plan)
        assert alice.replace_rules([]) == 2
        r1, r2 = system.stores["alice-store-r1"], system.stores["alice-store-r2"]
        assert (r1.rules.version_of("alice"), r2.rules.version_of("alice")) == (1, 2)
        assert system.broker.registry.get("alice").rules_version == 1
        kill(system, "alice-store")
        plan = FaultPlan(seed=7)
        plan.add_partition("r2-unseen", {"broker"}, {"alice-store-r2"})
        system.install_faults(plan)
        assert detect_and_fail_over(system)["Promoted"] is None
        assert system.broker.registry.get("alice").host == "alice-store"
        assert not r1.is_primary
        plan.heal("r2-unseen")
        result = system.broker.failover.heartbeat()["alice-store"]["FailedOver"]
        assert result["Promoted"] == "alice-store-r2"
        assert bob.fetch("alice") == []

    def test_a_failed_promote_does_not_fall_through_to_a_laggard(self, tmp_path):
        """Repro (d): r2 was cut off from the primary, so 48 of 64 acked
        samples are on r1 alone.  r1's promote is dropped; the broker used
        to fall through to r2, and bob read 16 of the 64."""
        system, alice, bob = replicated_system(tmp_path, n_replicas=2)
        alice.upload_segments([make_segment()])
        alice.flush()
        system.broker.failover.heartbeat()
        plan = FaultPlan(seed=7)
        plan.add_partition("r2-lags", {"alice-store"}, {"alice-store-r2"})
        system.install_faults(plan)
        for hour in (1, 2, 3):
            alice.upload_segments([make_segment(start_ms=MONDAY + hour * 3_600_000)])
            alice.flush()
        assert sample_count(bob.fetch("alice")) == 64
        kill(system, "alice-store")
        plan = FaultPlan(seed=7)
        plan.add_flaky("alice-store-r1", fail_first=1, path="/api/promote")
        system.install_faults(plan)
        assert detect_and_fail_over(system)["Promoted"] is None
        assert not system.stores["alice-store-r2"].is_primary
        result = system.broker.failover.heartbeat()["alice-store"]["FailedOver"]
        assert result["Promoted"] == "alice-store-r1"
        assert sample_count(bob.fetch("alice")) == 64

    def test_a_lost_promote_reply_leaves_one_primary(self, tmp_path):
        """Repro (e): r1 promoted itself but its reply was lost.  The broker
        used to promote r2 as well, leaving two primaries at epoch 2."""
        system, alice, bob = replicated_system(tmp_path, n_replicas=2)
        alice.upload_segments([make_segment()])
        alice.flush()
        kill(system, "alice-store")
        plan = FaultPlan(seed=7)
        plan.add_response_error("alice-store-r1", path="/api/promote", fail_first=1)
        system.install_faults(plan)
        assert detect_and_fail_over(system)["Promoted"] is None
        result = system.broker.failover.heartbeat()["alice-store"]["FailedOver"]
        assert result["Epoch"] == 3
        group = system.broker.failover.sets["alice-store"]
        primaries = [h for h in group.members() if system.stores[h].is_primary]
        assert primaries == [system.broker.registry.get("alice").host] == [result["Promoted"]]
        assert system.stores[result["Promoted"]].epoch == 3
        assert len(bob.fetch("alice")) == 1

    def test_a_lost_promote_reply_still_reports_the_fenced_revocation(self, tmp_path):
        """Repro (e) with a revocation no replica holds: r1 fences alice in
        the promotion whose reply is lost, so the re-election finds nothing
        left to fence.  The report must still name her, or the runbook's
        re-home list misses her."""
        system, alice, bob = replicated_system(tmp_path, n_replicas=2)
        alice.upload_segments([make_segment()])
        alice.flush()
        system.broker.failover.heartbeat()
        plan = FaultPlan(seed=7)
        plan.add_partition(
            "ship-lost", {"alice-store"}, {"alice-store-r1", "alice-store-r2"}
        )
        system.install_faults(plan)
        with pytest.raises(ReplicationError):
            alice.replace_rules([])
        kill(system, "alice-store")
        plan = FaultPlan(seed=7)
        plan.add_response_error("alice-store-r1", path="/api/promote", fail_first=1)
        system.install_faults(plan)
        assert detect_and_fail_over(system)["Promoted"] is None
        assert "alice" in system.stores["alice-store-r1"].fail_closed
        result = system.broker.failover.heartbeat()["alice-store"]["FailedOver"]
        assert result["Promoted"] == "alice-store-r1"
        assert "alice" in result["FailClosed"]
        assert bob.fetch("alice") == []


class TestStatusSurface:
    def test_broker_api_reports_set_topology(self, tmp_path):
        system, alice, bob = replicated_system(tmp_path)
        body = system.broker.client.with_key(
            system.broker.register_consumer("ops")
        ).post("https://broker/api/replicas/status", {})
        sets = body["Sets"]
        assert sets["alice-store"]["Primary"] == "alice-store"
        assert sets["alice-store"]["Replicas"] == ["alice-store-r1"]
        assert sets["alice-store"]["Epoch"] == 1
        kill(system, "alice-store")
        detect_and_fail_over(system)
        status = system.broker.failover.status()["alice-store"]
        assert status["Primary"] == "alice-store-r1"
        assert status["Demoted"] == ["alice-store"]
        assert status["Failovers"] == 1
