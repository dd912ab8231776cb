"""A replicating primary's commit fsync runs beside its replica round trip.

``_wal_commit`` hands the request's fsync to the WAL's one ``wal-fsync``
thread and ``_replication_barrier`` ships while it is in flight, joining
it in a ``finally``: the request still answers only once its journal is
on the primary's disk and a replica holds it.  These tests pin the
overlap itself, that a failed fsync fails its request, that every way out
of the barrier joins, and that nothing that truncates or closes the log
runs while an fsync is in flight.
"""

from __future__ import annotations

import errno
import os
import threading
import time

import pytest

from repro.collection.phone import PhoneConfig
from repro.core import SensorSafeSystem
from repro.exceptions import ServiceError, StorageError
from repro.net.resilience import NO_RETRY
from repro.net.transport import Network
from repro.rules.model import ALLOW, Rule
from repro.sensors.packets import SensorPacket
from repro.server.datastore_service import DataStoreService
from repro.storage.faults import StorageFaultPlan
from repro.storage.replication import ReplicaApplier
from repro.storage.wal import WriteAheadLog, fsyncs_in_flight

from tests.conftest import MONDAY, UCLA, make_segment

HELPER = "wal-fsync"


def packets(n, start=MONDAY):
    return [
        SensorPacket("ECG", start + i * 1_000, 250, (1.0, 2.0, 3.0, 4.0), UCLA, {})
        for i in range(n)
    ]


def replicated(tmp_path, *, storage_faults=None):
    """A semi-sync primary with one replica, owner alice and her phone,
    which sends a whole upload as one chunk carrying its flush."""
    system = SensorSafeSystem(seed=7, retry=NO_RETRY)
    primary = system.create_replicated_store(
        "alice-store", directory=str(tmp_path), storage_faults=storage_faults
    )
    alice = system.add_contributor("alice", store=primary)
    alice.add_rule(Rule(consumers=("bob",), action=ALLOW))
    phone = alice.phone(PhoneConfig(upload_batch_packets=1_000))
    return system, primary, phone


def record_fsyncs(monkeypatch, fd, *, before=None):
    """Patch ``os.fsync``: note the thread of every fsync of ``fd`` (after
    running ``before`` there, if given); returns the list of names."""
    threads = []
    real = os.fsync

    def fsync(n):
        if n == fd:
            threads.append(threading.current_thread().name)
            if before is not None:
                before()
        real(n)

    monkeypatch.setattr(os, "fsync", fsync)
    return threads


def test_an_upload_s_fsync_waits_for_the_replica_apply_and_is_acked(tmp_path, monkeypatch):
    """The primary's commit fsync does not return until the replica
    has entered ``apply_batch``.  Run serially, the fsync would wait for a
    ship that comes only after it, and time out; overlapped, it is acked."""
    system, primary, phone = replicated(tmp_path)
    applying = threading.Event()
    real_apply = ReplicaApplier.apply_batch

    def apply_batch(applier, body):
        applying.set()
        return real_apply(applier, body)

    def wait_for_the_replica():
        if not applying.wait(timeout=2.0):
            raise OSError(errno.ETIMEDOUT, "the replica never applied during the fsync")

    monkeypatch.setattr(ReplicaApplier, "apply_batch", apply_batch)
    threads = record_fsyncs(
        monkeypatch, primary.durability.wal._fh.fileno(), before=wait_for_the_replica
    )
    phone.upload(packets(8))
    assert phone.stats.packets_delivered == 8 and phone.offline_backlog == 0
    assert threads == [HELPER]
    replica = system.stores["alice-store-r1"]
    assert replica.durability.wal.last_lsn == primary.durability.wal.last_lsn


def test_a_failed_helper_fsync_fails_its_request_and_the_phone_keeps_its_backlog(
    tmp_path, monkeypatch
):
    """The helper's ``OSError`` is the request's error (a 500): the
    upload is not acknowledged, and the phone parks it and re-sends it."""
    _system, primary, phone = replicated(tmp_path)
    real = os.fsync
    failed = []

    def fsync(n):
        if threading.current_thread().name == HELPER:
            failed.append(n)
            raise OSError(errno.EIO, "disk gone")
        real(n)

    monkeypatch.setattr(os, "fsync", fsync)
    phone.upload(packets(8))
    assert failed and phone.stats.packets_delivered == 0
    assert phone.offline_backlog == 8 and phone.stats.upload_failures == 1
    assert fsyncs_in_flight() == 0
    monkeypatch.setattr(os, "fsync", real)
    assert phone.drain_offline() == 0
    assert phone.stats.packets_delivered == 8
    assert primary.durability.wal._unsynced == 0


def test_the_join_raises_the_helper_s_error_as_a_500(tmp_path, monkeypatch):
    wal = WriteAheadLog(str(tmp_path / "wal.log"), sync="group")
    wal.append("audit", {"n": 1})

    def fsync(fd):
        raise OSError(errno.EIO, "disk gone")

    monkeypatch.setattr(os, "fsync", fsync)
    wal.commit(beside=True)
    with pytest.raises(ServiceError) as caught:
        wal.join_fsync()
    assert caught.value.status == 500 and isinstance(caught.value.__cause__, OSError)
    assert wal._unsynced == 1  # still owed: the next commit fsyncs again
    monkeypatch.undo()
    wal.close()


class TestEveryWayOutJoins:
    """A refusal of the barrier propagates only after the join."""

    @staticmethod
    def flush(system, primary):
        key = system.contributors["alice"].client.api_key
        body = {"Contributor": "alice", "ApiKey": key}
        return system.network.request("POST", f"https://{primary.host}/api/flush", body)

    @staticmethod
    def slow_helper_fsync(monkeypatch, primary, seconds=0.05):
        return record_fsyncs(
            monkeypatch, primary.durability.wal._fh.fileno(), before=lambda: time.sleep(seconds)
        )

    def test_an_unreachable_replica_503s_after_the_join(self, tmp_path, monkeypatch):
        system, primary, _phone = replicated(tmp_path)
        primary.store.add_segment(make_segment())
        system.network.unregister_host("alice-store-r1")
        threads = self.slow_helper_fsync(monkeypatch, primary)
        before = primary.durability.wal.io_seconds
        response = self.flush(system, primary)
        assert response.status == 503 and response.body["ErrorKind"] == "ReplicationError"
        assert threads == [HELPER] and fsyncs_in_flight() == 0
        assert primary.durability.wal.io_seconds - before >= 0.05
        assert primary.durability.wal._unsynced == 0

    @pytest.mark.parametrize("manifest", ["kept", "unreadable"])
    def test_a_fenced_primary_demotes_after_the_join(self, tmp_path, monkeypatch, manifest):
        """A demotion mid-ship records membership; with no readable
        manifest that is a checkpoint, which joins the fsync first."""
        system, primary, _phone = replicated(tmp_path)
        primary.store.add_segment(make_segment())
        if manifest == "unreadable":  # as a corrupt manifest at open leaves it
            primary.durability.manifest, primary.durability.member = None, False
        generation = primary.durability.generation
        system.stores["alice-store-r1"].epoch = primary.epoch + 1  # a newer primary's
        threads = self.slow_helper_fsync(monkeypatch, primary)
        response = self.flush(system, primary)
        assert response.status == 503 and "fenced" in response.body["Error"]
        assert not primary.is_primary
        assert threads[0] == HELPER and fsyncs_in_flight() == 0  # a checkpoint fsyncs after
        assert primary.durability.generation == generation + (manifest == "unreadable")
        response = self.flush(system, primary)
        assert response.status == 409 and response.body["ErrorKind"] == "NotPrimaryError"

    def test_a_handler_error_after_the_commit_joins(self, tmp_path, monkeypatch):
        """A delete's audit record is recorded after its commit: an error
        there leaves the request with its fsync joined."""
        system, primary, _phone = replicated(tmp_path)
        primary.store.add_segment(make_segment())
        primary.store.flush()

        def record_access(**_fields):
            raise RuntimeError("the audit trail is unavailable")

        monkeypatch.setattr(primary.audit, "record_access", record_access)
        threads = record_fsyncs(monkeypatch, primary.durability.wal._fh.fileno())
        key = system.contributors["alice"].client.api_key
        body = {"Contributor": "alice", "ApiKey": key, "Query": {}}
        with pytest.raises(RuntimeError, match="audit"):
            system.network.request("POST", "https://alice-store/api/delete", body)
        assert threads == [HELPER] and fsyncs_in_flight() == 0


class TestAFaultPlanStillOverlaps:
    def test_the_overlap_runs_under_an_armed_plan(self, tmp_path, monkeypatch):
        plan = StorageFaultPlan(seed=1)
        plan.add_crash("checkpoint.done")
        _system, primary, phone = replicated(tmp_path, storage_faults=plan)
        threads = record_fsyncs(monkeypatch, primary.durability.wal._fh.fileno())
        phone.upload(packets(8))
        assert phone.stats.packets_delivered == 8
        assert threads == [HELPER]

    def test_pre_fsync_fires_on_the_request_thread_before_the_hand_off(
        self, tmp_path, monkeypatch
    ):
        plan = StorageFaultPlan(seed=1)
        _system, primary, phone = replicated(tmp_path, storage_faults=plan)
        plan.add_crash("wal.commit.pre_fsync")
        threads = record_fsyncs(monkeypatch, primary.durability.wal._fh.fileno())
        phone.upload(packets(8))
        assert phone.stats.packets_delivered == 0
        assert [e.point for e in plan.log if e.outcome == "crash"] == ["wal.commit.pre_fsync"]
        assert threads == [] and fsyncs_in_flight() == 0


class TestNothingTruncatesOrClosesAnFsyncInFlight:
    """The log's end and its handle stay put until the join."""

    @pytest.fixture()
    def wal(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal.log"), sync="group")
        wal.append("audit", {"n": 1})
        wal.commit(beside=True)
        yield wal
        wal.join_fsync()
        wal.close()

    @pytest.mark.parametrize("call", ["close", "reset", "commit"])
    def test_the_log_refuses(self, wal, call):
        with pytest.raises(StorageError, match="in flight"):
            getattr(wal, call)()
        assert not wal._fh.closed and wal.last_lsn == 1

    def test_a_checkpoint_refuses(self, tmp_path):
        service = DataStoreService("s", Network(), directory=str(tmp_path), durable=True)
        service.store.add_segment(make_segment())
        service.store.flush()
        wal = service.durability.wal
        wal.commit(beside=True)
        generation = service.durability.generation
        with pytest.raises(StorageError, match="in flight"):
            service.checkpoint()
        assert service.durability.generation == generation and wal.last_lsn > 0
        wal.join_fsync()
        service.checkpoint()
        assert service.durability.generation == generation + 1
        service.durability.close()

    def test_appends_after_the_hand_off_stay_owed(self, wal):
        wal.append("audit", {"n": 2})
        wal.join_fsync()
        assert wal._unsynced == 1
        wal.commit()
        assert wal._unsynced == 0
        wal.commit(beside=True)  # the fixture's join finds nothing owed


def test_an_unreplicated_store_fsyncs_inline(tmp_path, monkeypatch):
    service = DataStoreService("s", Network(), directory=str(tmp_path), durable=True)
    service.store.add_segment(make_segment())
    service.store.flush()
    threads = record_fsyncs(monkeypatch, service.durability.wal._fh.fileno())
    service._wal_commit()
    assert threads == [threading.current_thread().name]
    service.durability.close()
