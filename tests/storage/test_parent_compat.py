"""What commit 7718e51 wrote, the current code must still read.

The one-installer refactor changed no file format and no wire body.  The
fixtures under ``fixtures/parent_7718e51/`` were produced by the parent
commit's code (see ``generate.py`` there): a checkpointed-then-journaled
store directory, the bodies its shipper POSTed to ``/api/replicate/
append``, and a ``/api/migrate/install`` body.  Each must land, through
the current code, on the state the parent's own dumper recorded.

Since the ship travels as one byte stream the hex entries of those
bodies are no longer a wire form; the *frames* inside them — the durable
artefact, byte for byte what the parent's WAL held — are re-enveloped
through :func:`~repro.storage.replication.encode_ship` and must still be
accepted.  The fixture files themselves are untouched.
"""

import json
import shutil
from pathlib import Path

from repro.net.transport import Network
from repro.server.datastore_service import DataStoreService
from repro.storage.records import dump, record_owner
from repro.storage.replication import encode_ship
from repro.storage.wal import HEADER_SIZE
from tests.storage.test_records import wal_payloads
from repro.util import jsonutil

FIXTURE = Path(__file__).parent / "fixtures" / "parent_7718e51"


def load(name):
    return json.loads((FIXTURE / name).read_text(encoding="utf-8"))


def canonical(records):
    return sorted(jsonutil.canonical_dumps([op, data]) for op, data in records)


def test_parent_store_directory_recovers_clean_with_the_same_dump(tmp_path):
    directory = tmp_path / "st"
    shutil.copytree(FIXTURE / "store", directory)
    service = DataStoreService("st", Network(), directory=str(directory), durable=True)
    report = service.recovery_report
    assert report.clean, report.summary()
    assert report.manifest_found and report.checkpoint_lsn == 7
    assert report.wal_records_replayed == 4
    assert canonical(dump(service)) == load("expected_dump.json")


def parent_frames(body):
    """The ``(lsn, frame_bytes, chain_prev)`` triples one parent body shipped."""
    return [
        (entry["Lsn"], bytes.fromhex(entry["Frame"]), entry["ChainPrev"])
        for entry in body["Frames"]
    ]


def test_replicate_append_accepts_the_parent_s_frames(tmp_path):
    network = Network()
    replica = DataStoreService("st-r1", network, directory=str(tmp_path / "st-r1"), durable=True)
    replica.demote()
    key = replica.pair_primary()
    # The parent's first resync carries no Bootstrap: it is refused, like
    # the live ship after it, and its resync with a Bootstrap converges.
    first, live, bootstrap = load("replicate_append.json")
    assert "Bootstrap" not in first and "Bootstrap" in bootstrap and not live["Resync"]
    answers = (
        {"AppliedLsn": 0, "Rejected": "resync carries no state bootstrap"},
        {"AppliedLsn": 0, "Rejected": "no resync installed since this store started"},
        {"AppliedLsn": bootstrap["Frames"][-1]["Lsn"]},
    )
    for body, answer in zip((first, live, bootstrap), answers):
        # the parent's own hex entries are not a wire form any more ...
        refused = network.request(
            "POST", "https://st-r1/api/replicate/append", {**body, "ApiKey": key}
        )
        assert refused.status == 400 and "malformed ship" in refused.body["Error"]
        # ... its frames, in today's envelope, are what they always were
        reply = network.request(
            "POST",
            "https://st-r1/api/replicate/append",
            {**body, **encode_ship(parent_frames(body)), "ApiKey": key},
        ).body
        assert reply == answer
    assert replica.applier.bootstrap_applied == len(bootstrap["Bootstrap"])
    replicated = [r for r in dump(replica) if r[1].get("Principal") != "__primary__"]
    assert canonical(replicated) == load("expected_dump.json")
    # A resync is the parent's records, checkpointed: the replica's own log
    # holds the frames shipped after the last resync, byte for byte.
    shipped = [frame[HEADER_SIZE:] for _lsn, frame, _chain_prev in parent_frames(bootstrap)]
    assert wal_payloads(replica) == shipped and len(shipped) == 4


def test_migrate_install_accepts_the_parent_s_body(tmp_path):
    network = Network()
    dest = DataStoreService("dest", network, directory=str(tmp_path / "dest"), durable=True)
    key = dest.accept_move(["alice"], "source")
    body = load("migrate_install.json")
    reply = network.request(
        "POST", "https://dest/api/migrate/install", {**body, "ApiKey": key}, client="source"
    ).body
    assert reply["Installed"] == len(body["Records"])
    # alice's slice of what the parent's own full dump recorded
    expected = [
        line for line in load("expected_dump.json") if record_owner(*json.loads(line)) == "alice"
    ]
    assert canonical(dump(dest, ["alice"])) == expected
