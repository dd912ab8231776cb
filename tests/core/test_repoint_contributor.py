"""The owner's runbook step after the owner's store restarts in place.

A restart rotates a store's API keys, and the directory still names the
same host, so a re-key that waits for the host to move never comes: the
phone stays on a dead key (401).  ``repoint_contributor`` re-keys at the
directory's host whenever that host refuses the owner's key.
"""

import pytest

from repro.core import SensorSafeSystem
from repro.exceptions import AuthenticationError
from repro.server.datastore_service import DataStoreService

from tests.conftest import MONDAY, make_segment


def restart_in_place(system, host):
    """The store's process comes back on its directory; the broker reconciles it."""
    old = system.stores[host]
    old.durability.close()
    system.network.unregister_host(host)
    back = DataStoreService(host, system.network, directory=old.directory, durable=True,
                            seed=system.seed)
    assert system.reconcile(back)["failed"] == 0
    return back


def test_after_a_restart_in_place_the_runbook_re_keys_and_the_upload_is_acked(tmp_path):
    system = SensorSafeSystem(seed=7)
    store = system.create_store("alice-store", directory=str(tmp_path), durable=True)
    alice = system.add_contributor("alice", store=store)
    alice.upload_segments([make_segment()])
    alice.flush()
    back = restart_in_place(system, "alice-store")
    with pytest.raises(AuthenticationError):
        alice.upload_segments([make_segment(start_ms=MONDAY + 3_600_000)])

    alice = system.repoint_contributor("alice")
    assert alice.store_host == "alice-store"
    assert alice.upload_segments([make_segment(start_ms=MONDAY + 3_600_000)]) >= 0
    alice.flush()
    assert back.store.stats.n_segments == 2


def test_a_key_the_store_still_accepts_is_kept(tmp_path):
    system = SensorSafeSystem(seed=7)
    store = system.create_store("alice-store", directory=str(tmp_path), durable=True)
    alice = system.add_contributor("alice", store=store)
    key = alice.client.api_key
    assert system.repoint_contributor("alice").client.api_key == key
