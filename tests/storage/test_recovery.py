"""Service-level recovery tests: replay, quarantine, fail-closed, CLI."""

import os

import pytest

from repro.datastore.query import DataQuery
from repro.net.transport import Network
from repro.rules.model import ALLOW, Rule
from repro.server.datastore_service import DataStoreService
from repro.storage import StorageFaultPlan, wal_path
from repro.storage.cli import main as recover_main

from tests.conftest import make_segment

HOST = "st"


def durable_service(tmp_path, **kwargs):
    return DataStoreService(
        HOST, Network(), directory=str(tmp_path), durable=True, **kwargs
    )


def populated(tmp_path):
    """A durable store with a contributor, rules, data, and an audit entry."""
    service = durable_service(tmp_path)
    service.register_contributor("alice")
    service.register_consumer("bob")
    service.rules.add("alice", Rule(consumers=("bob",), action=ALLOW))
    service.store.add_segment(make_segment(channels=("ECG",), n=16))
    service.store.flush()
    service._wal_commit()
    bob_key = service.keys.key_of("bob")
    service.network.request(
        "POST",
        f"https://{HOST}/api/query",
        {"Contributor": "alice", "Query": {}, "ApiKey": bob_key},
    )
    return service


class TestReplay:
    def test_wal_only_restart_recovers_everything(self, tmp_path):
        populated(tmp_path)
        service2 = durable_service(tmp_path)
        report = service2.recovery_report
        assert report.clean and report.wal_records_replayed > 0
        assert service2.rules.version_of("alice") == 1
        assert len(service2.rules.rules_of("alice")) == 1
        assert service2.roles == {"alice": "contributor", "bob": "consumer"}
        result = service2.store.query("alice", DataQuery(channels=("ECG",)))
        assert result.n_samples == 16
        assert len(service2.audit.trail_of("alice")) == 1
        assert service2.audit.verify_chain("alice") == []

    def test_checkpoint_then_restart_skips_replay(self, tmp_path):
        service = populated(tmp_path)
        service.checkpoint()
        service2 = durable_service(tmp_path)
        report = service2.recovery_report
        assert report.clean
        assert report.wal_records_replayed == 0  # WAL was reset
        assert report.manifest_found and report.generation == 1
        assert service2.rules.version_of("alice") == 1
        assert service2.store.query("alice", DataQuery()).n_samples == 16

    def test_replay_is_idempotent_over_checkpoint(self, tmp_path):
        """Crash between manifest commit and WAL reset: the snapshot already
        holds the records, and the CheckpointLsn makes replay skip them."""
        service = populated(tmp_path)
        plan = StorageFaultPlan(seed=1)
        plan.add_crash("checkpoint.pre_wal_reset")
        service.durability.faults = plan
        from repro.exceptions import SimulatedCrashError

        with pytest.raises(SimulatedCrashError):
            service.checkpoint()
        service2 = durable_service(tmp_path)
        report = service2.recovery_report
        assert report.wal_records_replayed == 0
        assert report.wal_records_skipped > 0  # records at/below CheckpointLsn
        assert service2.rules.version_of("alice") == 1
        assert service2.store.query("alice", DataQuery()).n_samples == 16

    def test_deletion_survives_restart(self, tmp_path):
        service = populated(tmp_path)
        assert service.store.delete("alice", DataQuery(channels=("ECG",))) == 1
        service._wal_commit()
        service2 = durable_service(tmp_path)
        assert service2.store.query("alice", DataQuery()).n_samples == 0

    def test_places_survive_restart(self, tmp_path):
        from repro.util.geo import BoundingBox, LabeledPlace

        service = populated(tmp_path)
        service.set_places(
            "alice", {"home": LabeledPlace("home", BoundingBox(0, 0, 1, 1))}
        )
        service2 = durable_service(tmp_path)
        assert "home" in service2.places["alice"]


class TestFailClosed:
    def test_wal_bit_flip_fails_closed_for_all(self, tmp_path):
        service = populated(tmp_path)
        service.durability.close()
        StorageFaultPlan(seed=7).corrupt_file(wal_path(str(tmp_path), HOST))
        service2 = durable_service(tmp_path)
        report = service2.recovery_report
        assert report.wal_corrupt
        assert "alice" in report.fail_closed and "alice" in service2.fail_closed
        assert service2.rules.rules_of("alice") == ()  # deny-by-default
        assert report.quarantined_files  # suspect bytes preserved
        assert report.alerts
        # The engine releases nothing for a fail-closed contributor.
        released = service2._engine_for("alice").evaluate(
            "bob", [make_segment(channels=("ECG",), n=4)]
        )
        assert all(r.segment is None and not r.context_labels for r in released)

    def test_a_contributor_named_only_past_the_break_fails_closed(self, tmp_path):
        """The first frame is alice's role row: with it corrupt nothing
        replays, but the intact frames after it still name her — she is
        denied by default, not forgotten (a broker mirror keeps her)."""
        from repro.storage.wal import HEADER_SIZE

        service = populated(tmp_path)
        service.durability.close()
        path = wal_path(str(tmp_path), HOST)
        with open(path, "r+b") as fh:
            fh.seek(HEADER_SIZE + 2)
            byte = fh.read(1)
            fh.seek(HEADER_SIZE + 2)
            fh.write(bytes([byte[0] ^ 1]))
        service2 = durable_service(tmp_path)
        report = service2.recovery_report
        assert report.wal_corrupt and report.wal_records_replayed == 0
        assert report.fail_closed == ["alice"]
        assert service2.rules.contributors() == ["alice"]
        assert service2.rules.rules_of("alice") == ()

    def test_rules_snapshot_flip_fails_closed(self, tmp_path):
        service = populated(tmp_path)
        service.checkpoint()
        service.durability.close()
        StorageFaultPlan(seed=3).corrupt_file(
            str(tmp_path / f"{HOST}.rules.jsonl")
        )
        service2 = durable_service(tmp_path)
        report = service2.recovery_report
        assert report.fail_closed == ["alice"]
        assert service2.rules.rules_of("alice") == ()
        # The untrusted file was moved aside, not silently dropped.
        assert any("rules" in os.path.basename(f) for f in report.quarantined_files)

    def test_republishing_rules_lifts_fail_closed(self, tmp_path):
        service = populated(tmp_path)
        service.durability.close()
        StorageFaultPlan(seed=7).corrupt_file(wal_path(str(tmp_path), HOST))
        service2 = durable_service(tmp_path)
        assert "alice" in service2.fail_closed
        version = service2.rules.version_of("alice")
        service2.rules.replace_all(
            "alice", [Rule(consumers=("bob",), action=ALLOW)]
        )
        assert "alice" not in service2.fail_closed
        assert service2.rules.version_of("alice") == version + 1

    def test_fail_closed_state_survives_a_second_crash(self, tmp_path):
        """The deny state is itself journaled: restarting again without
        repair does not resurrect the corrupt optimism."""
        service = populated(tmp_path)
        service.durability.close()
        StorageFaultPlan(seed=7).corrupt_file(wal_path(str(tmp_path), HOST))
        service2 = durable_service(tmp_path)
        assert "alice" in service2.fail_closed
        service2.durability.close()
        service3 = durable_service(tmp_path)
        assert service3.rules.rules_of("alice") == ()

    def test_segment_corruption_quarantines_without_fail_closed(self, tmp_path):
        service = populated(tmp_path)
        service.checkpoint()
        service.durability.close()
        path = str(tmp_path / f"{HOST}.segments.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{not json at all\n")
        service2 = durable_service(tmp_path)
        report = service2.recovery_report
        assert report.quarantined_records == 1
        assert report.fail_closed == []  # data damage cannot widen sharing
        assert service2.rules.version_of("alice") == 1
        # The parseable segments still loaded despite the checksum alert.
        assert service2.store.query("alice", DataQuery()).n_samples == 16


class TestAuditChain:
    def test_chain_break_is_detected_and_reported(self, tmp_path):
        service = populated(tmp_path)
        service.checkpoint()
        service.durability.close()
        # Tamper: drop the audit record, leaving a plausible empty trail.
        path = str(tmp_path / f"{HOST}.audit.jsonl")
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        # Replace the record's withheld payload — content no longer matches
        # its chain value.
        tampered = lines[0].replace('"RawAccess":false', '"RawAccess":true')
        assert tampered != lines[0]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(tampered)
        service2 = durable_service(tmp_path)
        report = service2.recovery_report
        assert "alice" in report.audit_chain_breaks
        assert any("audit trail" in alert for alert in report.alerts)


class TestRecoveryApi:
    def test_recovery_endpoint_reports_state(self, tmp_path):
        populated(tmp_path)
        service2 = durable_service(tmp_path)
        key = service2.register_consumer("carol")
        body = service2.network.request(
            "POST", f"https://{HOST}/api/recovery", {"ApiKey": key}
        ).body
        assert body["Durable"] is True
        assert body["Recovery"]["Clean"] is True
        assert body["FailClosed"] == []


class TestCli:
    def test_recover_cli_clean(self, tmp_path, capsys):
        populated(tmp_path)
        code = recover_main(["--dir", str(tmp_path), "--host", HOST, "--strict"])
        out = capsys.readouterr().out
        assert code == 0
        assert "clean" in out

    def test_recover_cli_strict_fails_on_damage(self, tmp_path, capsys):
        service = populated(tmp_path)
        service.durability.close()
        StorageFaultPlan(seed=7).corrupt_file(wal_path(str(tmp_path), HOST))
        code = recover_main(["--dir", str(tmp_path), "--host", HOST, "--strict"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL-CLOSED" in out

    def test_recover_cli_json_and_checkpoint(self, tmp_path, capsys):
        populated(tmp_path)
        code = recover_main(
            ["--dir", str(tmp_path), "--host", HOST, "--json", "--checkpoint"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert '"Checkpointed":true' in out
        assert os.path.exists(str(tmp_path / f"{HOST}.manifest.json"))


class TestLsnContinuity:
    def test_rule_change_after_checkpointed_restart_survives_crash(self, tmp_path):
        """restart -> mutate -> crash: the reopened WAL must number appends
        above the manifest's CheckpointLsn.  An empty post-checkpoint WAL
        file alone says next_lsn=1, and a rule change journaled at lsn <=
        CheckpointLsn would be silently skipped by the next replay."""
        service = populated(tmp_path)
        service.checkpoint()
        service.durability.close()

        service2 = durable_service(tmp_path)
        report = service2.recovery_report
        assert report.checkpoint_lsn > 0
        assert service2.durability.wal.last_lsn >= report.checkpoint_lsn
        service2.rules.replace_all(
            "alice", [Rule(consumers=("bob",), sensors=("ECG",), action=ALLOW)]
        )
        # Crash without a checkpoint: the rule append was force-synced, so
        # closing the handle is all a real crash would leave behind.
        service2.durability.close()

        service3 = durable_service(tmp_path)
        report3 = service3.recovery_report
        assert report3.wal_records_skipped == 0, report3.summary()
        assert report3.wal_records_replayed > 0
        assert service3.rules.version_of("alice") == 2
        assert len(service3.rules.rules_of("alice")) == 1

    def test_checkpoint_after_restart_keeps_lsn_monotonic(self, tmp_path):
        """A checkpoint taken by the restarted process must not record a
        CheckpointLsn below the previous manifest's."""
        service = populated(tmp_path)
        first = service.checkpoint()
        service.durability.close()
        service2 = durable_service(tmp_path)
        service2.rules.replace_all(
            "alice", [Rule(consumers=("bob",), action=ALLOW)]
        )
        second = service2.checkpoint()
        assert second["CheckpointLsn"] > first["CheckpointLsn"]


class TestManifestCorruption:
    def test_corrupt_manifest_distrusts_parseable_snapshots(self, tmp_path):
        """A corrupt manifest leaves the rules snapshot checksum-unverifiable;
        a JSON-parseable bit flip in it must not be trusted, so without an
        intact-WAL replay of their state, contributors fail closed."""
        service = populated(tmp_path)
        service.checkpoint()  # WAL reset: the snapshot is the only copy
        service.durability.close()
        with open(str(tmp_path / f"{HOST}.manifest.json"), "w", encoding="utf-8") as fh:
            fh.write("{not json at all\n")
        service2 = durable_service(tmp_path)
        report = service2.recovery_report
        assert report.fail_closed == ["alice"], report.summary()
        assert "alice" in service2.fail_closed
        assert service2.rules.rules_of("alice") == ()  # deny-by-default

    def test_corrupt_manifest_with_intact_wal_keeps_exemption(self, tmp_path):
        """Crash-inside-checkpoint lookalike: when the not-yet-reset WAL
        still carries a contributor's complete state, snapshot distrust is
        benign and the WAL replay vouches for them."""
        from repro.util.geo import BoundingBox, LabeledPlace

        service = populated(tmp_path)  # no checkpoint: everything in the WAL
        # The corrupt manifest distrusts the places snapshot too, so the
        # exemption needs the WAL to carry alice's places as well.
        service.set_places(
            "alice", {"home": LabeledPlace("home", BoundingBox(0, 0, 1, 1))}
        )
        service.durability.close()
        with open(str(tmp_path / f"{HOST}.manifest.json"), "w", encoding="utf-8") as fh:
            fh.write("{not json at all\n")
        service2 = durable_service(tmp_path)
        report = service2.recovery_report
        assert report.fail_closed == [], report.summary()
        assert service2.rules.version_of("alice") == 1
        assert len(service2.rules.rules_of("alice")) == 1


class TestFailedOpen:
    def test_failed_recovery_leaves_host_unregistered(self, tmp_path):
        """If recovery raises, the constructor must not leave the host on
        the network — a retry would die on 'host name already registered'
        instead of the real storage error."""
        from repro.net.transport import Network as Net

        net = Net()
        wal_dir = tmp_path / f"{HOST}.wal"
        wal_dir.mkdir()  # unreadable WAL: scanning it raises
        with pytest.raises(Exception):
            DataStoreService(HOST, net, directory=str(tmp_path), durable=True)
        wal_dir.rmdir()
        # The retry succeeds on the same network under the same name.
        service = DataStoreService(HOST, net, directory=str(tmp_path), durable=True)
        assert service.recovery_report is not None
        service.durability.close()


#: Snapshot kind -> edits that make a good row of that file one ``apply``
#: refuses.  Every file also gets a row that is a JSON list (``list``) and
#: a row without its owner key (``None``).
NOT_RECORDS = {
    "segments": [{"StartTime": "abc"}, {"Format": 5}, {"Values": {"Encoding": "b64le-f64"}}],
    "rules": [{"Version": "abc"}, {"Rules": 5}],
    "places": [{"Places": 5}, {"Places": [{"Label": "home"}]}],
    "roles": [],
    "audit": [{"Seq": "abc"}, {"Query": 5}],
}
NOT_RECORD_CASES = [
    pytest.param(kind, edit, id=f"{kind}-{label}")
    for kind, edits in NOT_RECORDS.items()
    for edit, label in [(e, next(iter(e))) for e in edits]
    + [(list, "json-list"), (None, "missing-key")]
]


class TestRowsThatAreNotRecords:
    """A snapshot row that parses as JSON but is not its file's record is
    the same damage as a line that does not parse, whatever the file."""

    def snapshot(self, directory):
        """Two rows in every file, no manifest and no log: the snapshot is
        the only copy, so nothing can vouch for a contributor but its rows."""
        from repro.storage.durability import write_snapshot
        from repro.util.geo import BoundingBox, LabeledPlace

        service = DataStoreService(HOST, Network(), directory=str(directory))
        for name in ("alice", "carol"):
            service.register_contributor(name)
            service.rules.add(name, Rule(consumers=("bob",), action=ALLOW))
            service.set_places(name, {"home": LabeledPlace("home", BoundingBox(0, 0, 1, 1))})
            service.store.add_segment(make_segment(contributor=name, channels=("ECG",), n=16))
            service.audit.record_access(
                principal="bob", contributor=name, query={}, raw_access=False, segments_scanned=1
            )
        write_snapshot(service)
        return {"segments": 2, "rules": 2, "places": 2, "roles": 2, "audit": 2}

    @pytest.mark.parametrize("kind, edit", NOT_RECORD_CASES)
    def test_the_row_quarantines_and_the_store_starts(self, tmp_path, kind, edit):
        from repro.util import jsonutil

        clean = self.snapshot(tmp_path)
        path = tmp_path / f"{HOST}.{kind}.jsonl"
        lines = path.read_text().splitlines()
        row = jsonutil.loads(lines[0])
        if edit is list:
            row = [row]
        elif edit is None:
            del row["Principal" if kind == "roles" else "Contributor"]
        else:
            row.update(edit)
        lines[0] = jsonutil.canonical_dumps(row)
        path.write_text("\n".join(lines) + "\n")

        service = durable_service(tmp_path)  # the store starts
        report = service.recovery_report
        assert report.loaded == {**clean, kind: 1}  # the file's other row loaded
        assert report.quarantined_records == 1
        bad = tmp_path / "quarantine" / f"{HOST}.{kind}.jsonl.bad"
        assert lines[0] in bad.read_text()
        if kind in ("rules", "places"):  # they feed rule semantics
            assert report.fail_closed == ["alice", "carol"]
            assert service.rules.rules_of("carol") == ()
        else:
            assert report.fail_closed == [] and not service.fail_closed
            assert len(service.rules.rules_of("alice")) == 1
            assert any(kind.rstrip("s") in alert for alert in report.alerts)
