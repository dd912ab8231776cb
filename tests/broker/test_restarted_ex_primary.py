"""A primary that comes back after a failover rejoins; it does not serve.

A restarted store starts as a primary at epoch 1, whatever it was when it
died.  An ex-primary has no WAL ship to send before its first read, so no
epoch fence stops it: reconciling it as a plain restart re-enrolled its
consumers and served the owner's data under the rules she has since
changed at the promoted replica.  ``reconcile_store`` of a host its
replica set does not name as primary now rejoins it as a replica.

Rejoining is a resync, and a resync is the primary's records: the
ex-primary becomes them and drops what they lack.  The cells below pin
that with what it used to keep — a segment the owner deleted at the
promoted replica, an upload semi-sync refused — and then fail over to it
a second time, so bob reads whatever it still holds.
"""

import pytest

from repro.datastore.query import DataQuery
from repro.exceptions import ReplicationError
from repro.net.faults import FaultPlan
from repro.rules.model import DENY, Rule
from repro.server.datastore_service import ROLE_REPLICA, DataStoreService
from repro.util.timeutil import Interval

from tests.broker.test_failover import detect_and_fail_over, kill, replicated_system
from tests.conftest import MONDAY, assert_replica_matches, make_segment

HOUR = 3_600_000
KEPT = make_segment()
GONE = make_segment(start_ms=MONDAY + HOUR)


def restart_ex_primary(system):
    """The dead primary restarts from its directory; the broker reconciles it."""
    old = system.stores["alice-store"]
    old.durability.close()
    back = DataStoreService(
        "alice-store", system.network, directory=old.directory, durable=True, seed=system.seed
    )
    system.stores["alice-store"] = back
    assert system.reconcile(back)["failed"] == 0
    return back


def test_a_restarted_ex_primary_rejoins_and_serves_no_read(tmp_path):
    """Repro (f)."""
    system, alice, bob = replicated_system(tmp_path)
    alice.upload_segments([make_segment()])
    alice.flush()
    assert len(bob.fetch("alice")) == 1
    kill(system, "alice-store")
    assert detect_and_fail_over(system)["Promoted"] == "alice-store-r1"
    system.repoint_contributor("alice").add_rule(Rule(consumers=("bob",), action=DENY))

    back = restart_ex_primary(system)

    key = system.broker.escrow.key_for("bob", "alice-store")
    body = {"Contributor": "alice", "ApiKey": key}
    response = system.network.request("POST", "https://alice-store/api/query", body)
    assert response.status == 409 and response.body["ErrorKind"] == "NotPrimaryError"
    group = system.broker.failover.sets["alice-store"]
    assert (back.role, group.primary) == (ROLE_REPLICA, "alice-store-r1")
    assert "alice-store" in group.replicas
    promoted = system.stores["alice-store-r1"]
    assert back.rules.version_of("alice") == promoted.rules.version_of("alice")
    assert bob.fetch("alice") == []


def rejoin_then_fail_over_again(system, bob):
    """The ex-primary rejoins and matches the promoted replica; that
    replica dies, and the ex-primary is promoted in its turn.  Returns
    the start of every piece bob then reads."""
    back = restart_ex_primary(system)
    assert_replica_matches(system.stores["alice-store-r1"], back)
    kill(system, "alice-store-r1")
    assert detect_and_fail_over(system)["Promoted"] == "alice-store"
    return sorted(piece.interval.start for piece in bob.fetch("alice"))


@pytest.mark.parametrize("checkpoint", [True, False], ids=["checkpointed", "in-the-wal"])
def test_a_segment_the_owner_deleted_at_the_promoted_replica_stays_deleted(
    tmp_path, checkpoint
):
    """Cells 1 and 2.  With the delete still in the promoted replica's WAL
    a frame replay carried it; once a checkpoint had taken it out, the
    ex-primary kept the segment and bob read it after the next failover."""
    system, alice, bob = replicated_system(tmp_path)
    alice.upload_segments([KEPT, GONE])
    alice.flush()
    assert system.stores["alice-store-r1"].store.stats.n_segments == 2
    kill(system, "alice-store")
    assert detect_and_fail_over(system)["Promoted"] == "alice-store-r1"
    owner = system.repoint_contributor("alice")
    assert owner.delete_data(DataQuery(time_range=Interval(MONDAY + HOUR, MONDAY + 2 * HOUR))) == 1
    if checkpoint:
        system.stores["alice-store-r1"].checkpoint()

    assert rejoin_then_fail_over_again(system, bob) == [MONDAY]


def test_an_upload_semi_sync_refused_is_not_served_after_a_rejoin(tmp_path):
    """Cell 3.  The primary journaled the upload, could not ship it to its
    replica and refused it; the owner was told so.  It kept it through a
    restart and a rejoin, and bob read it once it was primary again."""
    system, alice, bob = replicated_system(tmp_path)
    alice.upload_segments([KEPT])
    alice.flush()
    plan = FaultPlan(seed=7)
    plan.add_partition("cut", {"alice-store"}, {"alice-store-r1"})
    system.install_faults(plan)
    alice.upload_segments([GONE])
    with pytest.raises(ReplicationError):
        alice.flush()
    assert system.stores["alice-store"].store.stats.n_segments == 2
    kill(system, "alice-store")
    system.install_faults(None)
    assert detect_and_fail_over(system)["Promoted"] == "alice-store-r1"

    assert rejoin_then_fail_over_again(system, bob) == [MONDAY]
