"""Broker/store convergence after a store crash (durability satellite).

The dangerous window: the store durably commits a rule change (WAL
fsync) and crashes before the eager push reaches the broker.  The two
sides diverge — the broker's mirror would keep matching searches against
rules the store has already superseded.  Once the restarted store is
re-paired (:func:`repro.core.system.pair`), :meth:`BrokerService.
reconcile_store` force-pulls every contributor on that host, so the
mirror adopts the store's recovered state — including a fail-closed
recovery's deny-by-default rules.
"""

import pytest

from repro.core.system import pair
from repro.exceptions import SimulatedCrashError
from repro.net.transport import Network
from repro.rules.model import ALLOW, DENY, Rule
from repro.server.broker_service import BrokerService
from repro.server.datastore_service import DataStoreService
from repro.storage import StorageFaultPlan, wal_path

HOST = "store-a"

ALLOW_ECG = Rule(consumers=("bob",), sensors=("ECG",), action=ALLOW)
DENY_GPS = Rule(consumers=("bob",), sensors=("GPS",), action=DENY)


def paired_system(tmp_path):
    """A broker and a durable store on one network, eagerly synced."""
    network = Network()
    broker = BrokerService(network)
    store = DataStoreService(
        HOST, network, directory=str(tmp_path), durable=True
    )
    pair(broker, store)
    store.register_contributor("alice")
    broker.register_contributor("alice", HOST)  # store signup, as the system does
    store.rules.replace_all("alice", [ALLOW_ECG])  # v1, eagerly pushed
    assert broker.registry.get("alice").rules_version == 1
    return network, broker, store


def restart(network, tmp_path):
    network.unregister_host(HOST)
    return DataStoreService(HOST, network, directory=str(tmp_path), durable=True)


def reconcile(broker, store):
    """Re-pair the restarted store (its keys rotated), then reconcile it."""
    pair(broker, store)
    return broker.reconcile_store(store.host)


class TestCrashBeforePush:
    def test_divergence_heals_on_reconcile(self, tmp_path):
        network, broker, store = paired_system(tmp_path)
        # Crash right after the v2 journal entry is fsynced: the WAL
        # listener runs before the broker-push listener, so the change is
        # durably committed on the store but never reaches the broker.
        plan = StorageFaultPlan(seed=0)
        plan.add_crash("wal.append.post_fsync")
        store.durability.wal.faults = plan
        with pytest.raises(SimulatedCrashError):
            store.rules.replace_all("alice", [ALLOW_ECG, DENY_GPS])  # v2
        assert broker.registry.get("alice").rules_version == 1  # diverged

        store2 = restart(network, tmp_path)
        assert store2.recovery_report.clean
        assert store2.rules.version_of("alice") == 2  # committed ⇒ recovered

        out = reconcile(broker, store2)
        assert out == {"pulled": 1, "applied": 1, "failed": 0}
        record = broker.registry.get("alice")
        assert record.rules_version == 2
        assert len(record.rules) == 2

    def test_reconciled_store_keeps_syncing_eagerly(self, tmp_path):
        network, broker, store = paired_system(tmp_path)
        store.durability.close()
        store2 = restart(network, tmp_path)
        reconcile(broker, store2)
        # Re-pairing rewired the eager push with fresh keys on both sides.
        store2.rules.replace_all("alice", [ALLOW_ECG, DENY_GPS])
        assert broker.registry.get("alice").rules_version == 2


class TestFailClosedConvergence:
    def test_mirror_adopts_deny_by_default(self, tmp_path):
        network, broker, store = paired_system(tmp_path)
        store.checkpoint()  # roles and v1 rules land in the snapshot
        store.rules.replace_all("alice", [ALLOW_ECG, DENY_GPS])  # v2 in WAL
        assert broker.registry.get("alice").rules_version == 2
        store.durability.close()
        StorageFaultPlan(seed=7).corrupt_file(wal_path(str(tmp_path), HOST))

        store2 = restart(network, tmp_path)
        assert "alice" in store2.fail_closed
        assert store2.rules.rules_of("alice") == ()
        # The broker still mirrors the optimistic v2 rules...
        assert len(broker.registry.get("alice").rules) == 2

        reconcile(broker, store2)
        # ...until the force-pull makes it adopt the store's deny state:
        # a mirror shadowing rules the store no longer trusts would show
        # consumers matches the store will deny.
        record = broker.registry.get("alice")
        assert record.rules == ()


class TestReconcileUnderPartition:
    """PR 6 satellite: reconcile_store must complete or change nothing."""

    def test_registry_untouched_while_partitioned(self, tmp_path):
        from repro.net.faults import FaultPlan

        network, broker, store = paired_system(tmp_path)
        store2 = restart(network, tmp_path)
        plan = FaultPlan(seed=0)
        plan.add_partition("net-split", {broker.host}, {HOST})
        network.install_faults(plan)
        before = broker.registry.get("alice")
        before_state = (before.rules_version, before.rules)
        out = reconcile(broker, store2)
        assert out == {"pulled": 0, "applied": 0, "failed": 1}
        # The mirror is exactly what it was — no half-applied profile —
        # and the miss is remembered for recovery, not forgotten.
        record = broker.registry.get("alice")
        assert (record.rules_version, record.rules) == before_state
        assert broker.sync.stale_contributors() == ["alice"]
        # Partition heals: the same call now converges and clears the mark.
        network.install_faults(None)
        out2 = reconcile(broker, store2)
        assert out2["failed"] == 0 and out2["pulled"] == 1
        assert broker.sync.stale_contributors() == []

    def test_partial_failure_never_half_applies(self, tmp_path):
        from repro.net.faults import FaultPlan

        network, broker, store = paired_system(tmp_path)
        store.register_contributor("carol")
        broker.register_contributor("carol", HOST)
        store.rules.replace_all("carol", [ALLOW_ECG])
        assert broker.registry.get("carol").rules_version == 1
        # carol's v2 commits at the store while its push is lost: the
        # store is ahead of the mirror, which only a pull can repair.
        plan = FaultPlan(seed=0)
        plan.add_drop(broker.host, path="/api/sync")
        network.install_faults(plan)
        store.rules.replace_all("carol", [ALLOW_ECG, DENY_GPS])
        assert broker.registry.get("carol").rules_version == 1
        store2 = restart(network, tmp_path)
        # The host's one bulk profile pull dies, including every retry
        # the broker's policy fires (4 attempts): every name it carried
        # is failed and stale, and no mirror moves.
        plan = FaultPlan(seed=0)
        plan.add_flaky(HOST, fail_first=4, path="/api/profiles")
        network.install_faults(plan)
        out = reconcile(broker, store2)
        assert out == {"pulled": 0, "applied": 0, "failed": 2}
        alice, carol = broker.registry.get("alice"), broker.registry.get("carol")
        assert (alice.rules_version, alice.rules) == (1, (ALLOW_ECG,))
        assert (carol.rules_version, carol.rules) == (1, (ALLOW_ECG,))
        assert broker.sync.stale_contributors() == ["alice", "carol"]
        # The next reconcile converges both and clears the marks.
        out = reconcile(broker, store2)
        assert out == {"pulled": 2, "applied": 2, "failed": 0}
        assert broker.registry.get("carol").rules_version == 2
        assert broker.sync.stale_contributors() == []
