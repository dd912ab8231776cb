"""A primary that comes back after a failover rejoins; it does not serve.

A restarted store starts as a primary at epoch 1, whatever it was when it
died.  An ex-primary has no WAL ship to send before its first read, so no
epoch fence stops it: reconciling it as a plain restart re-enrolled its
consumers and served the owner's data under the rules she has since
changed at the promoted replica.  ``reconcile_store`` of a host its
replica set does not name as primary now rejoins it as a replica.
"""

from repro.rules.model import DENY, Rule
from repro.server.datastore_service import ROLE_REPLICA, DataStoreService

from tests.broker.test_failover import detect_and_fail_over, kill, replicated_system
from tests.conftest import make_segment


def test_a_restarted_ex_primary_rejoins_and_serves_no_read(tmp_path):
    """Repro (f)."""
    system, alice, bob = replicated_system(tmp_path, mode="semi-sync")
    alice.upload_segments([make_segment()])
    alice.flush()
    assert len(bob.fetch("alice")) == 1
    old = system.stores["alice-store"]
    kill(system, "alice-store")
    assert detect_and_fail_over(system)["Promoted"] == "alice-store-r1"
    system.repoint_contributor("alice").add_rule(Rule(consumers=("bob",), action=DENY))

    old.durability.close()
    back = DataStoreService(
        "alice-store", system.network, directory=old.directory, durable=True, seed=system.seed
    )
    system.stores["alice-store"] = back
    assert system.broker.reconcile_store(back)["failed"] == 0

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
