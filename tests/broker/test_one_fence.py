"""One commit rule, one fence: a primary proves it is primary through the
replication path, and a failover fences every replica before it elects.

Three findings, each from a primary that had lost its primacy without
hearing of it:

* (c) an ex-primary cut off from the broker and its replica, but not from
  bob, kept releasing to him under the rules alice had since revoked at
  the promoted r1;
* (i) a read journaled its audit record but never shipped it under its
  own ack, so after a failover r1's trail did not name a consumer who
  had received data;
* (j) a survivor whose ``/api/demote`` was lost after a promotion kept
  acking the old primary at the old epoch, and the next heartbeat's
  resync erased those acknowledged writes.

A read is an audited write here: it is answered only once a replica still
following the primary's epoch holds its audit record.  The failover
demotes every replica at the next epoch (the fence) before it elects, so
no replica acks the old primary once a new one can serve.
"""

from repro.net.faults import FaultPlan

from tests.broker.test_failover import detect_and_fail_over, kill, replicated_system
from tests.conftest import MONDAY, make_segment

HOUR = 3_600_000


def upload(alice, hour):
    alice.upload_segments([make_segment(start_ms=MONDAY + hour * HOUR)])
    alice.flush()


def test_a_partitioned_ex_primary_releases_nothing_after_a_revocation(tmp_path):
    """Repro (c): bob still reaches the ex-primary, which no replica acks
    any more; he re-resolves to r1, where alice has revoked his rule."""
    system, alice, bob = replicated_system(tmp_path)
    upload(alice, 0)
    assert len(bob.fetch("alice")) == 1  # caches alice-store as alice's route
    plan = FaultPlan(seed=7)
    plan.add_partition("cut", {"alice-store"}, {system.broker.host, "alice-store-r1"})
    system.install_faults(plan)
    result = detect_and_fail_over(system)
    assert (result["Promoted"], result["Epoch"]) == ("alice-store-r1", 2)
    old_key = alice.client.api_key
    system.repoint_contributor("alice").replace_rules([])
    assert bob.fetch("alice") == []
    # The owner's raw read at the ex-primary is refused the same way.
    raw = system.network.request(
        "POST", "https://alice-store/api/query", {"ApiKey": old_key, "Contributor": "alice"}
    )
    assert (raw.status, raw.body.get("ErrorKind")) == (503, "ReplicationError")


def test_a_read_ships_its_audit_record_before_it_is_answered(tmp_path):
    """Repro (i): the audit record of bob's one read is on r1 when the
    primary dies right after answering it."""
    system, alice, bob = replicated_system(tmp_path)
    upload(alice, 0)
    assert bob.fetch("alice")
    kill(system, "alice-store")
    assert detect_and_fail_over(system)["Promoted"] == "alice-store-r1"
    trail = system.stores["alice-store-r1"].audit.trail_of("alice")
    assert "bob" in [record.principal for record in trail]


def test_a_lost_survivor_demote_lets_no_ack_be_erased(tmp_path):
    """Repro (j): r2's first ``/api/demote`` is dropped while the primary is
    cut off from the broker and r1.  Every sample alice is acked for then
    ends on the set's primary and on its replica."""
    system, alice, _bob = replicated_system(tmp_path, n_replicas=2)
    upload(alice, 0)
    plan = FaultPlan(seed=7)
    plan.add_partition("cut", {"alice-store"}, {system.broker.host, "alice-store-r1"})
    plan.add_flaky("alice-store-r2", fail_first=1, path="/api/demote")
    system.install_faults(plan)
    detect_and_fail_over(system)
    for hour in (1, 2, 3):
        upload(alice, hour)  # each one acked: no exception
    kill(system, "alice-store")
    system.install_faults(None)
    system.broker.failover.heartbeat()
    group = system.broker.failover.sets["alice-store"]
    assert group.primary != "alice-store" and group.replicas
    for host in [group.primary, *group.replicas]:
        assert system.stores[host].store.stats.n_samples == 64, host
