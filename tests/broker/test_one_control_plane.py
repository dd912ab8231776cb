"""The broker commands a store only over the network, and a killed host
stops acting.

Three findings that the broker's old in-process path hid:

* (g) a killed primary still resynced a replica that restarted after the
  kill, because the broker linked them by calling the dead store's
  methods directly;
* (h) a set's primary restarted in place came back with no shipper, so it
  acknowledged writes no replica held, and the next failover lost them;
* re-linking that primary resynced its replicas to it even when it came
  back behind them (a damaged or lost tail), which erased the only copies
  of acknowledged writes: it stays primary only when it ranks first.

The set's members are host names to the broker; a kill takes a host off
the network both ways (``Network.unregister_host``).
"""

import os

import pytest

from repro.auth.accounts import ROLE_CONTRIBUTOR
from repro.core import SensorSafeSystem
from repro.exceptions import ReplicationError, SensorSafeError
from repro.net.faults import FaultPlan
from repro.server.datastore_service import DataStoreService

from tests.broker.test_failover import detect_and_fail_over, kill, replicated_system
from tests.broker.test_restarted_replica import lagging_r2_then_dead_primary, restart_r1, samples
from tests.conftest import MONDAY, make_segment, read_wal_frames

HOUR = 3_600_000


def test_a_killed_primary_ships_nothing_to_a_restarted_replica(tmp_path):
    """Repro (g): four acked uploads r2 (cut off) lacks, then the primary is
    killed with no other partition, and r1 restarts and is reconciled."""
    system, bob = lagging_r2_then_dead_primary(tmp_path)
    back, _status = restart_r1(system)
    assert back.applier.bootstrap_applied == 0  # nothing shipped after the kill
    result = detect_and_fail_over(system)
    assert result["Promoted"] == "alice-store-r1"
    assert samples(bob.fetch("alice")) == 64


def upload(alice, hour):
    alice.upload_segments([make_segment(start_ms=MONDAY + hour * HOUR)])
    alice.flush()


def restart_primary_in_place(system):
    """alice-store restarts from its directory and is reconciled; returns
    the restarted store."""
    old = system.stores["alice-store"]
    old.durability.close()
    system.network.unregister_host(old.host)
    back = DataStoreService(
        old.host, system.network, directory=old.directory, durable=True, seed=system.seed
    )
    system.reconcile(back)
    return back


def test_a_primary_restarted_in_place_is_relinked(tmp_path):
    """Repro (h): reconciling the set's own primary links its replica again,
    so what it acknowledges after its restart survives the next failover."""
    system, alice, bob = replicated_system(tmp_path)
    upload(alice, 0)
    back = restart_primary_in_place(system)
    assert back.is_primary
    rekeyed = system.network.request(
        "POST",
        "https://alice-store/api/register",
        {"Username": "alice", "Role": ROLE_CONTRIBUTOR, "Password": "pw"},
    ).body
    alice.client = alice.client.with_key(rekeyed["ApiKey"])
    for hour in (1, 2, 3):
        upload(alice, hour)
    r1 = system.stores["alice-store-r1"]
    assert r1.durability.wal.last_lsn == back.durability.wal.last_lsn
    kill(system, "alice-store")
    assert detect_and_fail_over(system)["Promoted"] == "alice-store-r1"
    assert samples(bob.fetch("alice")) == 64


def damaged_primary(tmp_path, damage):
    """Four acked uploads r1 holds; then ``damage(wal_path, last_frame)``
    on the primary's WAL, before it restarts."""
    system, alice, bob = replicated_system(tmp_path)
    for hour in range(4):
        upload(alice, hour)
    wal = system.stores["alice-store"].durability.wal
    wal.commit()
    *_held, (_lsn, frame, _chain_prev) = read_wal_frames(wal.path)
    assert system.stores["alice-store-r1"].durability.wal.last_lsn == wal.last_lsn
    damage(wal.path, frame)
    return system, alice, bob


def flip_a_bit(path, frame):
    """A bit flips inside the last frame: recovery quarantines it."""
    with open(path, "r+b") as fh:
        fh.seek(os.path.getsize(path) - len(frame) // 2)
        flipped = fh.read(1)[0] ^ 0x01
        fh.seek(-1, os.SEEK_CUR)
        fh.write(bytes([flipped]))


def lose_it(path, frame):
    """The last frame never reached the disk (a group-sync tail)."""
    os.truncate(path, os.path.getsize(path) - len(frame))


@pytest.mark.parametrize("damage", [flip_a_bit, lose_it])
def test_a_primary_back_behind_its_replica_is_not_relinked(tmp_path, damage):
    """A restarted primary that cannot vouch for its tail, or lost it, is
    demoted: r1, which holds every acked frame, is promoted instead of
    being resynced to the primary, and the old primary rejoins under it."""
    system, alice, bob = damaged_primary(tmp_path, damage)
    back = restart_primary_in_place(system)
    assert back.recovery_report.clean == (damage is lose_it)
    r1 = system.stores["alice-store-r1"]
    assert r1.store.stats.n_samples == 64
    group = system.broker.failover.sets["alice-store"]
    assert (group.primary, group.replicas, group.epoch) == ("alice-store-r1", ["alice-store"], 2)
    assert not back.is_primary
    assert samples(bob.fetch("alice")) == 64
    alice = system.repoint_contributor("alice")
    upload(alice, 4)
    assert back.durability.wal.last_lsn == r1.durability.wal.last_lsn
    assert samples(bob.fetch("alice")) == 80


def test_a_dropped_link_acknowledges_nothing_alone(tmp_path):
    """The promoted r1's link to r2 is dropped: r1 refuses writes rather
    than ack them unreplicated, and the next heartbeat links r2 again."""
    system, alice, _bob = replicated_system(tmp_path, n_replicas=2)
    upload(alice, 0)
    plan = FaultPlan(seed=7)
    plan.add_flaky("alice-store-r1", 1, path="/api/replicate/link")
    system.install_faults(plan)
    kill(system, "alice-store")
    assert detect_and_fail_over(system)["Promoted"] == "alice-store-r1"
    alice = system.repoint_contributor("alice")
    with pytest.raises(ReplicationError):
        upload(alice, 1)
    system.broker.failover.heartbeat()
    upload(alice, 2)
    r1, r2 = system.stores["alice-store-r1"], system.stores["alice-store-r2"]
    assert r2.durability.wal.last_lsn == r1.durability.wal.last_lsn
    assert sorted(r1.replication.links) == ["alice-store-r2"]


def test_a_set_whose_primary_took_no_link_is_not_registered(tmp_path):
    plan = FaultPlan(seed=7)
    plan.add_flaky("alice-store", 1, path="/api/replicate/link")
    system = SensorSafeSystem(seed=7, fault_plan=plan)
    with pytest.raises(SensorSafeError, match="took no replica link"):
        system.create_replicated_store("alice-store", directory=str(tmp_path))
    assert system.broker.failover.sets == {}


def test_only_a_primary_takes_links_and_only_well_formed(tmp_path):
    system, _alice, _bob = replicated_system(tmp_path)
    key = system.broker.store_keys

    def link(host, body):
        return system.network.request(
            "POST", f"https://{host}/api/replicate/link", {**body, "ApiKey": key[host]}
        )

    assert link("alice-store-r1", {"Replicas": []}).status == 409
    for body in ({}, {"Replicas": {}}, {"Replicas": [{"Host": "x"}]}, {"Replicas": ["x"]}):
        assert link("alice-store", body).status == 400, body
    assert link("alice-store", {"Replicas": []}).status == 200


def test_a_primary_behind_with_no_candidate_fails_over_at_the_heartbeat(tmp_path):
    """r1 is cut off from the broker while the primary that lost its tail
    is reconciled: nobody can be promoted, so the primary is demoted and
    the set is down.  A demoted primary answers as a replica, which the
    heartbeat counts as a miss, so once r1 answers it is promoted."""
    system, _alice, bob = damaged_primary(tmp_path, lose_it)
    plan = FaultPlan(seed=7)
    plan.add_partition("r1-cut", {"broker"}, {"alice-store-r1"})
    system.install_faults(plan)
    back = restart_primary_in_place(system)
    assert system.broker.failover.sets["alice-store"].primary == "alice-store"
    assert not back.is_primary
    plan.heal("r1-cut")
    assert detect_and_fail_over(system)["Promoted"] == "alice-store-r1"
    assert samples(bob.fetch("alice")) == 64
