"""Tests for the access audit trail."""

import pytest

from repro.datastore.query import DataQuery
from repro.rules.model import ALLOW, Rule, abstraction
from repro.server.audit import AuditLog, AuditRecord

from tests.conftest import make_segment


class TestAuditLogUnit:
    def test_records_accumulate_in_order(self):
        log = AuditLog()
        log.record_access(
            principal="bob", contributor="alice", query={}, raw_access=False,
            segments_scanned=3,
        )
        log.record_access(
            principal="carol", contributor="alice", query={}, raw_access=False,
            segments_scanned=1,
        )
        trail = log.trail_of("alice")
        assert [r.principal for r in trail] == ["bob", "carol"]
        assert trail[0].seq < trail[1].seq

    def test_trails_are_per_contributor(self):
        log = AuditLog()
        log.record_access(
            principal="bob", contributor="alice", query={}, raw_access=False,
            segments_scanned=0,
        )
        assert log.trail_of("dana") == []

    def test_limit_returns_most_recent(self):
        log = AuditLog()
        for i in range(5):
            log.record_access(
                principal=f"p{i}", contributor="alice", query={}, raw_access=False,
                segments_scanned=0,
            )
        assert [r.principal for r in log.trail_of("alice", limit=2)] == ["p3", "p4"]

    def test_released_items_summarized(self):
        from repro.datastore.cache import ReleaseSummary
        from repro.rules.engine import ReleasedSegment
        from repro.util.timeutil import Interval

        log = AuditLog()
        items = [
            ReleasedSegment(
                contributor="alice",
                interval=Interval(0, 10),
                segment=make_segment(n=8),
                context_labels={"Stress": "Stressed"},
                withheld={"Respiration": "closure"},
            )
        ]
        record = log.record_access(
            principal="bob", contributor="alice", query={}, raw_access=False,
            segments_scanned=1, summary=ReleaseSummary.of(items),
        )
        assert record.pieces_released == 1
        assert record.samples_released == 8
        assert record.labels_released == ("Stress",)
        assert record.withheld == {"Respiration": "closure"}

    def test_accesses_by_principal(self):
        log = AuditLog()
        log.record_access(principal="bob", contributor="alice", query={},
                          raw_access=False, segments_scanned=0)
        log.record_access(principal="carol", contributor="alice", query={},
                          raw_access=False, segments_scanned=0)
        assert len(log.accesses_by("alice", "bob")) == 1

    def test_summary_aggregates(self):
        log = AuditLog()
        log.record_access(principal="bob", contributor="alice", query={},
                          raw_access=False, segments_scanned=0)
        log.record_access(principal="alice", contributor="alice", query={},
                          raw_access=True, segments_scanned=0)
        summary = log.summary("alice")
        assert summary["bob"]["accesses"] == 1
        assert summary["alice"]["raw"] == 1

    def test_json_roundtrip(self):
        log = AuditLog()
        record = log.record_access(
            principal="bob", contributor="alice", query={"Channels": ["ECG"]},
            raw_access=False, segments_scanned=2, trace_id="trace-000042",
        )
        again = AuditRecord.from_json(record.to_json())
        assert again == record
        assert again.trace_id == "trace-000042"

    def test_from_json_tolerates_pre_trace_records(self):
        log = AuditLog()
        record = log.record_access(
            principal="bob", contributor="alice", query={}, raw_access=False,
            segments_scanned=0,
        )
        legacy = record.to_json()
        del legacy["TraceId"]  # a record persisted before tracing existed
        assert AuditRecord.from_json(legacy).trace_id == ""


class TestAuditThroughService:
    @pytest.fixture()
    def wired(self, system):
        alice = system.add_contributor("alice")
        alice.upload_segments([make_segment(channels=("ECG", "AccelX"), n=16)])
        alice.flush()
        alice.add_rule(Rule(consumers=("bob",), action=ALLOW))
        alice.add_rule(Rule(consumers=("bob",), action=abstraction(Stress="NotShare")))
        bob = system.add_consumer("bob")
        bob.add_contributors(["alice"])
        return system, alice, bob

    def test_consumer_query_is_audited(self, wired):
        _, alice, bob = wired
        bob.fetch("alice", DataQuery())
        trail = alice.audit_trail()
        assert len(trail) == 1
        record = trail[0]
        assert record.principal == "bob"
        assert not record.raw_access
        # AccelX flows (16 samples); ECG is withheld by the closure
        # because Stress is NotShared — both facts land in the audit.
        assert record.samples_released == 16
        assert "ECG" in record.withheld

    def test_owner_view_is_audited_as_raw(self, wired):
        _, alice, _ = wired
        alice.view_data()
        trail = alice.audit_trail()
        assert trail[-1].raw_access
        assert trail[-1].principal == "alice"

    def test_audit_requires_owner(self, wired):
        system, alice, bob = wired
        key = bob.refresh_keys()["alice-store"]
        response = bob.client.with_key(key).post(
            "https://alice-store/api/audit/list", {"Contributor": "alice"}, raw=True
        )
        assert response.status == 403

    def test_summary_through_api(self, wired):
        _, alice, bob = wired
        bob.fetch("alice")
        bob.fetch("alice")
        summary = alice.audit_summary()
        assert summary["bob"]["accesses"] == 2

    def test_owner_reads_trace_id_through_api(self, wired):
        """The owner's trail, read over the audit API, names each trace."""
        _, alice, bob = wired
        bob.fetch("alice")
        trail = alice.audit_trail()
        assert trail[-1].trace_id.startswith("trace-")

    def test_non_owner_cannot_read_trail_even_with_store_key(self, wired):
        system, alice, bob = wired
        carol = system.add_consumer("carol")
        carol.add_contributors(["alice"])
        key = carol.refresh_keys()["alice-store"]
        response = carol.client.with_key(key).post(
            "https://alice-store/api/audit/list", {"Contributor": "alice"}, raw=True
        )
        assert response.status == 403


class TestChecksumChain:
    """The trail's integrity chain (durability PR): a torn or tampered
    trail is detected instead of trusted as a shorter plausible one."""

    def _log_with(self, n=3):
        log = AuditLog()
        for i in range(n):
            log.record_access(
                principal="bob", contributor="alice", query={"I": i},
                raw_access=False, segments_scanned=1,
            )
        return log

    def test_intact_chain_verifies(self):
        assert self._log_with().verify_chain("alice") == []

    def test_chain_survives_json_roundtrip(self):
        records = self._log_with().trail_of("alice")
        restored = AuditLog()
        restored.restore([AuditRecord.from_json(r.to_json()) for r in records])
        assert restored.verify_chain("alice") == []

    def test_dropped_record_breaks_chain(self):
        records = self._log_with().trail_of("alice")
        restored = AuditLog()
        restored.restore([records[0], records[2]])  # middle record gone
        assert restored.verify_chain("alice") == [records[2].seq]

    def test_tampered_content_breaks_chain(self):
        from dataclasses import replace

        records = self._log_with().trail_of("alice")
        tampered = replace(records[1], raw_access=True)
        restored = AuditLog()
        restored.restore([records[0], tampered, records[2]])
        assert restored.verify_chain("alice") == [records[1].seq]

    def test_legacy_prefix_then_fresh_chain(self):
        """Pre-chain records verify as legacy; the chain restarts after."""
        from dataclasses import replace

        legacy = [
            replace(r, chain="") for r in self._log_with(2).trail_of("alice")
        ]
        log = AuditLog()
        log.restore(legacy)
        log.record_access(
            principal="bob", contributor="alice", query={}, raw_access=False,
            segments_scanned=0,
        )
        assert log.verify_chain("alice") == []

    def test_restore_is_idempotent_per_seq(self):
        """WAL replay over a snapshot that already holds the record must
        not duplicate it (and a duplicate would break the chain)."""
        log = self._log_with()
        log.restore(list(log.trail_of("alice")))
        assert len(log.trail_of("alice")) == 3
        assert log.verify_chain("alice") == []

    def test_restore_never_regresses_the_seq_counter(self):
        """Recovery restores the snapshot trail in one call, then replays
        WAL records one call each; a replayed *older* record (newest WAL
        frames torn away) must not drop the counter below the snapshot
        max, or fresh appends would reuse live (contributor, seq) keys."""
        snapshot = self._log_with().trail_of("alice")
        log = AuditLog()
        log.restore(snapshot)  # counter -> 4
        log.restore([snapshot[0]])  # older replay: duplicate, skipped
        fresh = log.record_access(
            principal="bob", contributor="alice", query={}, raw_access=False,
            segments_scanned=0,
        )
        assert fresh.seq == snapshot[-1].seq + 1
        assert len({r.seq for r in log.trail_of("alice")}) == 4

    def test_one_at_a_time_restores_skip_duplicates_and_ratchet(self):
        """Replay restores a trail a record per call, as recovery and a
        replica's applier do: a duplicate is still skipped and an older
        record never pulls the counter back."""
        snapshot = self._log_with(4).trail_of("alice")
        log = AuditLog()
        for record in [*snapshot, snapshot[1], snapshot[0]]:
            log.restore([record])
        assert [r.seq for r in log.trail_of("alice")] == [r.seq for r in snapshot]
        assert log.verify_chain("alice") == []
        fresh = log.record_access(
            principal="bob", contributor="alice", query={}, raw_access=False,
            segments_scanned=0,
        )
        assert fresh.seq == snapshot[-1].seq + 1

    def test_one_at_a_time_replay_is_linear(self):
        """Restoring a 20,000-record trail a record per call stays linear.
        A duplicate test that scans the trail makes this quadratic: about
        12 s on a 2-core VM, against well under 1 s for the seq set."""
        import time

        records = [
            AuditRecord(
                seq=seq, at_ms=seq, principal="bob", contributor="alice",
                query={}, raw_access=False, segments_scanned=0,
                pieces_released=0, samples_released=0, labels_released=(),
                withheld={},
            )
            for seq in range(1, 20_001)
        ]
        log = AuditLog()
        started = time.perf_counter()
        for record in records:
            log.restore([record])
        assert time.perf_counter() - started < 2.0
        assert len(log.trail_of("alice")) == 20_000
