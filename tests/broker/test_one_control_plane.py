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
  of acknowledged writes: it stays primary only when it ranks first;
* a set member restarted in place reopened as a primary, and acknowledged
  writes before the broker reconciled it: a primary's were lost at the
  next failover, a replica's at its next resync.  A member now reopens as
  a replica (its manifest's ``Member``), journals nothing, and serves again
  only if the broker's election promotes it.

The set's members are host names to the broker; a kill takes a host off
the network both ways (``Network.unregister_host``).
"""

import json
import os

import pytest

from repro.auth.accounts import ROLE_CONTRIBUTOR
from repro.core import SensorSafeSystem
from repro.core.contributor import Contributor
from repro.core.system import pair
from repro.datastore.query import DataQuery
from repro.exceptions import NotPrimaryError, ReplicationError, SensorSafeError
from repro.net.faults import FaultPlan
from repro.rules.parser import rule_to_json
from repro.server.datastore_service import ROLE_REPLICA, DataStoreService
from repro.storage.cli import main as recover_main
from repro.storage.recovery import manifest_path

from tests.broker.test_failover import ALLOW_BOB, detect_and_fail_over, kill, replicated_system
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


def reopen(system, host):
    """``host`` restarts from its directory; the broker has not reconciled it."""
    old = system.stores[host]
    old.durability.close()
    system.network.unregister_host(host)
    back = DataStoreService(
        host, system.network, directory=old.directory, durable=True, seed=system.seed
    )
    system.stores[host] = back
    return back


def rekey(system, host):
    """alice asks ``host`` for a fresh key with her password."""
    body = {"Username": "alice", "Role": ROLE_CONTRIBUTOR, "Password": "pw"}
    return system.network.request("POST", f"https://{host}/api/register", body)


def refused_as_replica(response):
    return response.status == 409 and response.body["ErrorKind"] == NotPrimaryError.__name__


def test_a_restarted_primary_acknowledges_nothing_before_it_is_reconciled(tmp_path):
    """Repro: alice re-keyed at the restarted primary before the broker
    reconciled it, and three flushed uploads were acknowledged there that no
    replica held; the next failover lost them (bob read 16 of 64 samples).
    The re-key is refused now, and once the reconcile's election has
    promoted the primary again, the same uploads ship under their acks."""
    system, alice, bob = replicated_system(tmp_path)
    upload(alice, 0)
    back = reopen(system, "alice-store")
    assert refused_as_replica(rekey(system, "alice-store"))
    system.reconcile(back)
    assert back.is_primary and system.broker.failover.sets["alice-store"].epoch == 2
    alice.client = alice.client.with_key(rekey(system, "alice-store").body["ApiKey"])
    for hour in (1, 2, 3):
        upload(alice, hour)
    kill(system, "alice-store")
    assert detect_and_fail_over(system)["Promoted"] == "alice-store-r1"
    assert samples(bob.fetch("alice")) == 64


def test_a_restarted_replica_gives_no_key_and_takes_no_upload(tmp_path):
    """Repro: a restarted replica reopened as a primary, gave alice a key
    and acknowledged an upload no other store held, which its next resync
    erased.  It answers both with 409 now, and rejoins as a replica."""
    system, alice, _bob = replicated_system(tmp_path)
    upload(alice, 0)
    back = reopen(system, "alice-store-r1")
    held = back.durability.wal.last_lsn
    assert refused_as_replica(rekey(system, "alice-store-r1"))
    with pytest.raises(NotPrimaryError):
        upload(Contributor("alice", "alice-store-r1", alice.client), 1)
    assert back.durability.wal.last_lsn == held and back.store.stats.n_samples == 16
    system.reconcile(back)
    upload(alice, 2)
    primary = system.stores["alice-store"]
    assert back.role == ROLE_REPLICA
    assert back.durability.wal.last_lsn == primary.durability.wal.last_lsn
    assert back.store.stats.n_samples == 32


@pytest.mark.parametrize("host", ["alice-store", "alice-store-r1"])
def test_a_restarted_member_journals_nothing_until_the_election(tmp_path, host):
    """From its open until the broker's election, a restarted member's log
    does not move: register, upload, query, rules-add and enroll are all
    refused, even with the broker paired again.  So an election that ties
    the returned primary with its replica ties two equal logs, and keeping
    the primary resyncs no acknowledged frame away."""
    system, alice, _bob = replicated_system(tmp_path)
    upload(alice, 0)
    back = reopen(system, host)
    held = back.durability.wal.last_lsn
    pair(system.broker, back)
    bob_key = system.broker.escrow.key_for("bob", "alice-store")
    segment = make_segment(start_ms=MONDAY + HOUR).to_json()
    requests = {
        "/api/register": {"Username": "alice", "Role": ROLE_CONTRIBUTOR, "Password": "pw"},
        "/api/upload": {"Contributor": "alice", "Segments": [segment],
                        "ApiKey": alice.client.api_key},
        "/api/query": {"Contributor": "alice", "Query": DataQuery().to_json(),
                       "ApiKey": bob_key},
        "/api/rules/add": {"Contributor": "alice", "Rule": rule_to_json(ALLOW_BOB),
                           "ApiKey": alice.client.api_key},
        "/api/enroll": {"Consumer": "carol", "Groups": [],
                        "ApiKey": system.broker.store_keys[host]},
    }
    for path, body in requests.items():
        answer = system.network.request("POST", f"https://{host}{path}", body)
        assert refused_as_replica(answer), (path, answer.status, answer.body)
    assert back.durability.wal.last_lsn == held
    system.reconcile(back)
    group = system.broker.failover.sets["alice-store"]
    r1 = system.stores["alice-store-r1"]
    assert (group.primary, group.epoch) == ("alice-store", 2 if host == "alice-store" else 1)
    assert r1.durability.wal.last_lsn == system.stores["alice-store"].durability.wal.last_lsn


def manifest(store):
    with open(manifest_path(store.directory, store.host), encoding="utf-8") as fh:
        return json.load(fh)


def test_the_member_mark_survives_a_damaged_open_and_the_recover_cli(tmp_path):
    """A primary whose last frame flipped a bit reopens as a replica; its
    damaged open checkpoints without ``Epoch``, and it reopens as one
    again, and again after ``python -m repro recover --checkpoint``."""
    system, _alice, _bob = damaged_primary(tmp_path, flip_a_bit)
    back = reopen(system, "alice-store")
    assert not back.recovery_report.clean and back.role == ROLE_REPLICA
    assert "Epoch" not in manifest(back) and manifest(back)["Member"]
    assert reopen(system, "alice-store").role == ROLE_REPLICA
    again = system.stores["alice-store"]
    again.durability.close()
    generation = manifest(again)["Generation"]
    assert recover_main(["--dir", again.directory, "--host", again.host, "--checkpoint"]) == 0
    assert manifest(again)["Generation"] == generation + 1 and manifest(again)["Member"]
    assert reopen(system, "alice-store").role == ROLE_REPLICA


def test_a_manifest_from_before_the_mark_counts_its_epoch(tmp_path):
    """A manifest written before ``Member`` existed marks a member by the
    epoch it names: only a set member's journal names one."""
    system, _alice, _bob = replicated_system(tmp_path)
    r1 = system.stores["alice-store-r1"]
    r1.durability.close()
    old = {k: v for k, v in manifest(r1).items() if k != "Member"}
    assert "Epoch" in old
    with open(manifest_path(r1.directory, r1.host), "w", encoding="utf-8") as fh:
        json.dump(old, fh)
    assert reopen(system, "alice-store-r1").role == ROLE_REPLICA
