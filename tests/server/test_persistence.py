"""Tests for full service-state persistence across restarts.

The snapshot writer is :func:`repro.storage.durability.write_snapshot`;
the loader is :func:`repro.storage.recovery.recover_service` (damage to a
snapshot — quarantine and fail-closed rather than a raise — is covered by
``tests/storage/test_recovery.py``).
"""

import pytest

from repro.auth.apikeys import ApiKeyRegistry
from repro.datastore.query import DataQuery
from repro.exceptions import StorageError
from repro.net.transport import Network
from repro.rules.model import ALLOW, Rule, abstraction
from repro.server.datastore_service import DataStoreService
from repro.storage.durability import write_snapshot
from repro.storage.recovery import recover_service
from repro.util import jsonutil
from repro.util.geo import BoundingBox, LabeledPlace
from repro.util.idgen import DeterministicRng

from tests.conftest import broker_pushes, make_segment, released_pieces


def build_service(tmp_path, network=None, register=True):
    network = network or Network()
    service = DataStoreService("store", network, directory=str(tmp_path))
    key = service.register_contributor("alice") if register else None
    return network, service, key


@pytest.fixture()
def saved(tmp_path):
    network, service, alice_key = build_service(tmp_path)
    service.register_consumer("bob")
    service.set_places(
        "alice", {"home": LabeledPlace("home", BoundingBox(0, 0, 1, 1))}
    )
    service.rules.add("alice", Rule(consumers=("bob",), action=ALLOW))
    service.rules.add(
        "alice", Rule(consumers=("bob",), action=abstraction(Stress="NotShare"))
    )
    service.store.add_segment(make_segment(channels=("ECG", "AccelX"), n=32))
    service.store.flush()
    # One audited access.
    bob_key = service.keys.key_of("bob")
    network.request(
        "POST",
        "https://store/api/query",
        {"Contributor": "alice", "Query": {}, "ApiKey": bob_key},
    )
    write_snapshot(service)
    return tmp_path


class TestRoundtrip:
    def test_everything_survives_restart(self, saved):
        network2, service2, _ = build_service(saved, register=False)
        report = recover_service(service2)
        assert report.clean
        counts = report.loaded
        assert counts["segments"] > 0
        assert counts["rules"] == 2
        assert counts["places"] == 1
        assert counts["audit"] == 1

        # Rules enforce identically after reload.
        assert service2.rules.version_of("alice") == 2
        engine = service2._engine_for("alice")
        released = engine.evaluate("bob", [make_segment(channels=("AccelX",), n=4)])
        assert released  # allow rule survived
        ecg = engine.evaluate("bob", [make_segment(channels=("ECG",), n=4)])
        assert all(r.segment is None for r in ecg)  # closure rule survived

        # Places and roles survived.
        assert "home" in service2.places["alice"]
        assert service2.roles["alice"] == "contributor"

        # Audit trail survived and the sequence continues, not restarts.
        trail = service2.audit.trail_of("alice")
        assert len(trail) == 1
        next_record = service2.audit.record_access(
            principal="x", contributor="alice", query={}, raw_access=False,
            segments_scanned=0,
        )
        assert next_record.seq > trail[0].seq

    def test_data_queryable_after_reload(self, saved):
        _, service2, _ = build_service(saved, register=False)
        recover_service(service2)
        result = service2.store.query("alice", DataQuery(channels=("ECG",)))
        assert result.n_samples == 32

    def test_api_keys_are_rotated_not_restored(self, saved):
        """Key material is never written to disk: after a restart the old
        keys are invalid until principals re-register."""
        network2, service2, _ = build_service(saved, register=False)
        recover_service(service2)
        assert service2.keys.key_of("alice") is None

    def test_reload_does_not_refire_broker_sync(self, saved):
        network2, service2, _ = build_service(saved, register=False)
        pushes = broker_pushes(network2)
        service2.pair_broker("broker", "push-key")
        recover_service(service2)
        assert pushes == []  # restore() bypasses change listeners

    def test_save_requires_directory(self):
        network = Network()
        service = DataStoreService("memonly", network)
        with pytest.raises(StorageError):
            write_snapshot(service)
        with pytest.raises(StorageError):
            recover_service(service)

    def test_load_from_empty_directory_is_fresh(self, tmp_path):
        _, service, _ = build_service(tmp_path, register=False)
        counts = recover_service(service).loaded
        assert counts == {"segments": 0, "rules": 0, "places": 0, "roles": 0, "audit": 0}


class TestRestoreInvalidatesDecisions:
    def test_restored_places_reach_the_next_release(self, tmp_path):
        """A snapshot that changes places without a single rule line must
        still retire the compiled artifact holding the old regions, not
        only the cached decisions."""
        from tests.conftest import UCLA

        network, service, _ = build_service(tmp_path)
        bob_key = service.register_consumer("bob")
        campus = BoundingBox(UCLA.lat - 0.01, UCLA.lon - 0.01, UCLA.lat + 0.01, UCLA.lon + 0.01)
        service.set_places("alice", {"campus": LabeledPlace("campus", campus)})
        service.rules.add(
            "alice", Rule(consumers=("bob",), location_labels=("campus",), action=ALLOW)
        )
        service.store.add_segment(make_segment(channels=("AccelX",), n=8))
        service.store.flush()

        def released():
            return released_pieces(
                network.request(
                    "POST",
                    "https://store/api/query",
                    {"Contributor": "alice", "Query": {}, "ApiKey": bob_key},
                ).body
            )

        assert released()  # captured on campus, and campus is shared

        write_snapshot(service)
        elsewhere = LabeledPlace("campus", BoundingBox(0, 0, 1, 1))
        (tmp_path / "store.places.jsonl").write_text(
            jsonutil.dumps({"Contributor": "alice", "Places": [elsewhere.to_json()]}) + "\n"
        )
        (tmp_path / "store.rules.jsonl").write_text("")
        recover_service(service)
        assert released() == []  # "campus" is somewhere else now


class TestAtomicSnapshots:
    """Snapshot rewrites are atomic (durability PR): a crash mid-save
    leaves the previous complete file."""

    def test_crash_before_rename_preserves_previous_snapshot(self, saved):
        from repro.exceptions import SimulatedCrashError
        from repro.storage import StorageFaultPlan

        _, service, _ = build_service(saved, register=False)
        recover_service(service)
        service.rules.add("alice", Rule(consumers=("eve",), action=ALLOW))
        plan = StorageFaultPlan(seed=0)
        plan.add_crash("snapshot.pre_rename")
        with pytest.raises(SimulatedCrashError):
            write_snapshot(service, faults=plan)

        _, fresh, _ = build_service(saved, register=False)
        report = recover_service(fresh)
        assert report.clean
        assert report.loaded["rules"] == 2  # the pre-crash save, complete
        assert fresh.rules.version_of("alice") == 2

    def test_torn_rewrite_never_tears_the_live_file(self, saved):
        from repro.exceptions import SimulatedCrashError
        from repro.storage import StorageFaultPlan

        _, service, _ = build_service(saved, register=False)
        recover_service(service)
        plan = StorageFaultPlan(seed=3)
        plan.add_torn_write("snapshot.write")
        with pytest.raises(SimulatedCrashError):
            write_snapshot(service, faults=plan)
        _, fresh, _ = build_service(saved, register=False)
        report = recover_service(fresh)
        assert report.clean and report.loaded["segments"] > 0

    def test_malformed_rules_line_fails_closed_not_skips(self, saved):
        """A rule line that cannot be read may have been a Deny: the
        loader quarantines it and denies the contributor by default."""
        with open(saved / "store.rules.jsonl", "a", encoding="utf-8") as fh:
            fh.write("{broken\n")
        _, service, _ = build_service(saved, register=False)
        report = recover_service(service)
        assert report.quarantined_records == 1
        assert report.fail_closed == ["alice"] and service.fail_closed == {"alice"}
        assert service.rules.rules_of("alice") == ()
        assert service.rules.version_of("alice") == 3  # above the snapshot's 2

    def test_malformed_segment_line_quarantines_not_skips(self, saved):
        with open(saved / "store.segments.jsonl", "a", encoding="utf-8") as fh:
            fh.write("not json\n")
        _, service, _ = build_service(saved, register=False)
        report = recover_service(service)
        assert report.quarantined_records == 1 and not report.clean
        assert any("segment record lost" in alert for alert in report.alerts)
        assert report.loaded["segments"] > 0 and report.fail_closed == []


class TestKeysNeverRepeat:
    """A durable store's key and salt nonces start at its boot number,
    which each open counts in the manifest before the store serves."""

    def open(self, directory, network=None):
        return DataStoreService("st", network or Network(), directory=str(directory), durable=True)

    def test_a_re_key_after_a_restart_issues_no_earlier_key(self, tmp_path):
        first = self.open(tmp_path)
        k1 = first.register_contributor("alice")
        k2 = first.register_contributor("alice")
        first.register_contributor("bob")
        bob_salt = first.credentials["bob"][0]
        first.durability.close()
        network = Network()
        restarted = self.open(tmp_path, network)
        k3 = restarted.register_contributor("alice")
        restarted.register_contributor("carol")
        assert k3 not in (k1, k2)
        assert restarted.credentials["carol"][0] != bob_salt
        for old in (k1, k2):
            refused = network.request("POST", "https://st/api/stats", {"ApiKey": old})
            assert refused.status == 401
        assert network.request("POST", "https://st/api/stats", {"ApiKey": k3}).status == 200

    def test_each_open_counts_one_boot_and_checkpoints_carry_it(self, tmp_path):
        manifest = tmp_path / "st.manifest.json"
        for boot in (1, 2, 3):
            service = self.open(tmp_path)
            assert service.durability.boot == boot
            assert jsonutil.loads(manifest.read_text())["Boot"] == boot
            if boot == 2:
                service.checkpoint()
                assert jsonutil.loads(manifest.read_text())["Boot"] == boot
            service.durability.close()

    def test_a_manifest_without_boot_reads_as_zero(self, tmp_path):
        service = self.open(tmp_path)
        service.checkpoint()
        service.durability.close()
        manifest = tmp_path / "st.manifest.json"
        written = jsonutil.loads(manifest.read_text())
        del written["Boot"]
        manifest.write_text(jsonutil.canonical_dumps(written) + "\n")
        again = self.open(tmp_path)
        assert again.recovery_report.clean and again.durability.boot == 1

    def test_a_store_in_memory_keeps_the_seed_s_stream(self):
        seeded = ApiKeyRegistry("secret:st", DeterministicRng(0).fork("store:st").fork("keys"))
        assert DataStoreService("st", Network()).register_contributor("alice") == seeded.issue(
            "alice"
        )
