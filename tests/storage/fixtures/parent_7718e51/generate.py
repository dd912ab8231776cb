"""Regenerates this directory.  Run with the PARENT commit's source:

    git clone /root/repo /root/scratch/parent && git -C /root/scratch/parent checkout 7718e51
    PYTHONPATH=/root/scratch/parent/src python tests/storage/fixtures/parent_7718e51/generate.py

It writes what commit 7718e51 (the last one with five installers and four
dumpers) left on disk and put on the wire:

* ``store/`` — a durable store directory: checkpointed (five snapshot
  files + manifest), then journaled past the checkpoint (WAL);
* ``expected_dump.json`` — that store's live state at close, as the
  parent's ``bootstrap_records`` dumped it (sorted canonical JSON);
* ``replicate_append.json`` — the bodies of its ``/api/replicate/append``
  ships to a replica: a frames-only resync, a live ship, and a
  post-checkpoint resync that leads with a snapshot bootstrap;
* ``migrate_install.json`` — a ``/api/migrate/install`` body.

``tests/storage/test_parent_compat.py`` feeds them to the current code.
"""

import os
import shutil
import sys
import tempfile

from repro.net.client import HttpClient
from repro.net.transport import Network
from repro.rules.model import ALLOW, DENY, Rule
from repro.server.datastore_service import ROLE_REPLICA, DataStoreService
from repro.storage.migration import migration_records
from repro.storage.replication import ReplicaApplier, bootstrap_records
from repro.util import jsonutil
from repro.util.geo import BoundingBox, LabeledPlace

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "..", ".."))
from tests.conftest import make_segment  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
HOST = "st"


def write(name, obj):
    with open(os.path.join(HERE, name), "w", encoding="utf-8") as fh:
        fh.write(jsonutil.canonical_dumps(obj) + "\n")


def main():
    work = tempfile.mkdtemp()
    network = Network()
    primary = DataStoreService(HOST, network, directory=os.path.join(work, HOST), durable=True)
    replica = DataStoreService(
        "st-r1", network, directory=os.path.join(work, "st-r1"), durable=True, role=ROLE_REPLICA
    )
    shipper = primary.enable_replication("async")
    key = replica.pair_primary()
    shipper.attach("st-r1", HttpClient(network, name=HOST, api_key=key))

    ships = []
    apply_batch = ReplicaApplier.apply_batch

    def capture(self, body):
        ships.append({k: v for k, v in body.items() if k != "ApiKey"})
        return apply_batch(self, body)

    ReplicaApplier.apply_batch = capture

    def query_as_bob():
        network.request(
            "POST",
            f"https://{HOST}/api/query",
            {"Contributor": "alice", "Query": {}, "ApiKey": primary.keys.key_of("bob")},
        )

    primary.register_contributor("alice")
    primary.register_consumer("bob")
    primary.set_places("alice", {"home": LabeledPlace("home", BoundingBox(0, 0, 1, 1))})
    primary.rules.add("alice", Rule(consumers=("bob",), action=ALLOW, rule_id="r1"))
    primary.store.add_segment(make_segment(channels=("ECG", "AccelX"), n=8))
    primary.store.flush()
    query_as_bob()
    primary.durability.commit()
    shipper.pump()  # ship 1: frames-only resync from lsn 1

    primary.rules.add("alice", Rule(consumers=("eve",), action=DENY, rule_id="r2"))
    shipper.pump()  # ship 2: a live ship

    primary.checkpoint()
    primary.set_places("alice", {"work": LabeledPlace("work", BoundingBox(2, 2, 3, 3))})
    primary.rules.add("alice", Rule(consumers=("carol",), action=ALLOW, rule_id="r3"))
    primary.store.add_segment(make_segment(channels=("ECG",), n=8, start_ms=1_300_000_000_000))
    primary.store.flush()
    query_as_bob()
    primary.durability.commit()
    shipper.links["st-r1"].resync = True
    shipper.pump()  # ship 3: post-checkpoint resync, bootstrap + frames

    write("replicate_append.json", ships)
    write("migrate_install.json", {"Records": [[op, data] for op, data in migration_records(primary, ["alice"])]})
    write(
        "expected_dump.json",
        sorted(jsonutil.canonical_dumps([op, data]) for op, data in bootstrap_records(primary)),
    )
    primary.durability.close()
    shutil.rmtree(os.path.join(HERE, "store"), ignore_errors=True)
    shutil.copytree(os.path.join(work, HOST), os.path.join(HERE, "store"))
    shutil.rmtree(work)


if __name__ == "__main__":
    main()
