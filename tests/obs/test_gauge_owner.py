"""A gauge reads its newest owner.

A restarted store builds a new ``Durability``, ``ReplicaApplier``,
``WalShipper`` and ``AdmissionController``, each registering its gauges
under the same series as the instance that died.  ``gauge(callback=…)``
used to keep the first callback it was given, so after a restart the
store's gauges read the dead process: a replica's applied LSN stuck where
it was, and a WAL size of 0 from a closed log while the live one grew.
"""

from repro.core.system import SensorSafeSystem
from repro.server.datastore_service import DataStoreService

from tests.broker.test_failover import replicated_system
from tests.conftest import MONDAY, make_segment

HOUR = 3_600_000


def restart(system, host):
    """The store stops, comes back from its directory and is reconciled."""
    old = system.stores[host]
    system.network.unregister_host(host)
    old.durability.close()
    back = DataStoreService(
        host, system.network, directory=old.directory, durable=True, seed=system.seed
    )
    system.stores[host] = back
    assert system.reconcile(back)["failed"] == 0
    return back


def three_uploads(alice):
    for hour in range(1, 4):
        alice.upload_segments([make_segment(start_ms=MONDAY + hour * HOUR)])
        alice.flush()


def gauge(system, name, **labels):
    return system.obs.metrics.gauge_value(name, **labels)


def test_a_restarted_semi_sync_replica_gauges_its_live_applier_and_wal(tmp_path):
    system, alice, _ = replicated_system(tmp_path)
    alice.upload_segments([make_segment()])
    alice.flush()

    replica = restart(system, "alice-store-r1")
    three_uploads(alice)

    assert replica.durability.wal.last_lsn > 0
    assert gauge(system, "replication_applied_lsn", store="alice-store-r1") == (
        replica.durability.wal.last_lsn
    )
    live_wal = replica.durability.wal.size_bytes()
    assert live_wal > 0
    assert gauge(system, "wal_size_bytes", store="alice-store-r1") == live_wal


def test_a_checkpointed_durable_store_gauges_its_live_wal_after_a_restart(tmp_path):
    system = SensorSafeSystem(seed=7)
    primary = system.create_store("alice-store", directory=str(tmp_path), durable=True)
    alice = system.add_contributor("alice", store=primary)
    alice.upload_segments([make_segment()])
    alice.flush()
    system.stores["alice-store"].checkpoint()

    store = restart(system, "alice-store")
    alice.client = alice.client.with_key(store.register_contributor("alice"))
    three_uploads(alice)

    live_wal = store.durability.wal.size_bytes()
    assert live_wal > 0
    assert gauge(system, "wal_size_bytes", store="alice-store") == live_wal
