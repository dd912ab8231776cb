"""Tests for what a migration ships: the export and the install."""

import pytest

from repro.core import SensorSafeSystem
from repro.rules.model import ALLOW, Rule
from repro.server.datastore_service import BROKER_PRINCIPAL
from repro.storage.records import dump
from tests.conftest import make_segment


@pytest.fixture()
def shard_system(tmp_path):
    """Two durable shards, two contributors pinned to shard-1."""
    system = SensorSafeSystem(seed=7)
    shards = system.create_shard_fleet(2, directory=str(tmp_path), durable=True)
    alice = system.add_contributor("alice", store=shards[0])
    ben = system.add_contributor("ben", store=shards[0])
    alice.add_rule(Rule(consumers=("bob",), action=ALLOW))
    ben.add_rule(Rule(consumers=("bob",), action=ALLOW))
    alice.upload_segments([make_segment(contributor="alice")])
    ben.upload_segments([make_segment(contributor="ben")])
    alice.flush()
    ben.flush()
    return system, shards


def install(dest, records):
    """``/api/migrate/install`` at ``dest``, with the broker's key there."""
    body = {"Records": [list(r) for r in records], "ApiKey": dest.keys.key_of(BROKER_PRINCIPAL)}
    response = dest.network.request("POST", f"https://{dest.host}/api/migrate/install", body)
    assert response.status == 200, response.body
    return response.body


class TestMigrationRecords:
    def test_snapshot_is_filtered_to_the_moving_range(self, shard_system):
        _, shards = shard_system
        records = dump(shards[0], ["alice"])
        ops = [op for op, _ in records]
        assert "role" in ops and "segment" in ops and "rules" in ops
        for op, data in records:
            owner = data.get("Contributor") or data.get("Principal")
            assert owner == "alice", (op, data)


class TestInstallRecords:
    def test_roundtrip_installs_state_on_the_destination(self, shard_system):
        _, shards = shard_system
        source, dest = shards
        records = dump(source, ["alice"])
        result = install(dest, records)
        assert result["Installed"] == len(records)
        assert result["RuleVersions"]["alice"] == source.rules.version_of("alice")
        assert "alice" in dest.store.contributors()
        assert len(dest.store.segments_of("alice")) == len(
            source.store.segments_of("alice")
        )
        assert dump(dest, ["alice"]) == records  # places included: she set none, none arrive
        # Installed records were re-journaled: a dest restart replays them.
        assert dest.durability.wal.last_lsn > 0

    def test_install_is_idempotent(self, shard_system):
        _, shards = shard_system
        source, dest = shards
        records = dump(source, ["alice"])
        install(dest, records)
        before = len(dest.store.segments_of("alice"))
        version = dest.rules.version_of("alice")
        install(dest, records)
        assert len(dest.store.segments_of("alice")) == before
        assert dest.rules.version_of("alice") == version

    def test_cutover_fences_unverifiable_rules(self, shard_system):
        _, shards = shard_system
        source, dest = shards
        # Ship everything EXCEPT the rules snapshot: the destination's
        # rule state is then unverifiable against the broker mirror.
        records = [
            (op, data)
            for op, data in dump(source, ["alice"])
            if op != "rules"
        ]
        install(dest, records)
        fenced = dest._fence_rule_versions(
            {"alice": source.rules.version_of("alice")}
        )
        assert fenced == ["alice"]
        assert "alice" in dest.fail_closed
        # Default deny at a version above the mirror: the deny wins sync.
        assert dest.rules.version_of("alice") > source.rules.version_of("alice")
        assert dest.rules.rules_of("alice") == ()

    def test_retried_install_keeps_the_cutover_fence(self, shard_system):
        """The documented idempotent retry, after the fence: the source's
        snapshot is older than the deny, so it is skipped — and a skipped
        record must leave every view of the deny standing."""
        _, shards = shard_system
        source, dest = shards
        version = source.rules.version_of("alice")
        records = dump(source, ["alice"])
        install(dest, [r for r in records if r[0] != "rules"])
        assert dest._fence_rule_versions({"alice": version}) == ["alice"]

        install(dest, records)

        assert dest.rules.rules_of("alice") == ()
        assert dest.rules.version_of("alice") == version + 1
        assert "alice" in dest.fail_closed
        probe = dest.keys.issue("probe")
        health = dest.network.request(
            "POST", f"https://{dest.host}/api/health", {"ApiKey": probe}
        ).body
        assert health["FailClosed"] == ["alice"]
        open_denies = dest.network.obs.slo.report()["OpenFailClosed"]
        assert [(d["Store"], d["Contributor"]) for d in open_denies] == [
            (dest.host, "alice")
        ]
        # The owner's current rules — a version that wins — do lift it.
        source.rules.add("alice", Rule(consumers=("carol",), action=ALLOW))
        source.rules.add("alice", Rule(consumers=("dave",), action=ALLOW))
        install(dest, dump(source, ["alice"]))
        assert "alice" not in dest.fail_closed
        assert len(dest.rules.rules_of("alice")) == 3
        assert dest.network.obs.slo.report()["OpenFailClosed"] == []
