"""Tests for what a migration ships: the range and the install."""

import pytest

from repro.core import SensorSafeSystem
from repro.exceptions import AuthenticationError
from repro.rules.model import ALLOW, Rule
from repro.server.datastore_service import DataStoreService
from repro.storage.records import dump, export_range, record_owner
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
    """``/api/migrate/install`` at ``dest``, from shard-1 with the key ``dest``
    accepted for the records' owners."""
    key = dest.accept_move({record_owner(op, data) for op, data in records}, "shard-1")
    body = {"Records": [list(r) for r in records], "ApiKey": key}
    response = dest.network.request(
        "POST", f"https://{dest.host}/api/migrate/install", body, client="shard-1"
    )
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
        assert result["Digest"] == export_range(source, ["alice"])[1]
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


class TestTheInstallKey:
    """The destination takes a move's records only with the key it accepted
    for that move: from its source, for its contributors, until it restarts."""

    def post_install(self, dest, records, key, client="shard-1"):
        body = {"Records": [list(r) for r in records], "ApiKey": key}
        return dest.network.request(
            "POST", f"https://{dest.host}/api/migrate/install", body, client=client
        )

    @pytest.mark.parametrize("client", ["shard-1", "shard-3"])
    def test_a_key_for_alice_installs_nobody_else(self, shard_system, client):
        """ben's records beside alice's refuse the whole batch, and a key
        sent by another host than the move's source installs nothing."""
        _, (source, dest) = shard_system
        key = dest.accept_move(["alice"], "shard-1")
        records = dump(source, ["alice", "ben"]) if client == "shard-1" else dump(source, ["alice"])
        before = dest.durability.wal.last_lsn
        response = self.post_install(dest, records, key, client)
        assert response.status == 403, response.body
        assert response.body["ErrorKind"] == "AuthorizationError"
        assert dump(dest, ["alice", "ben"]) == []
        assert dest.durability.wal.last_lsn == before

    def test_the_broker_s_own_key_is_refused(self, shard_system):
        system, (source, dest) = shard_system
        dest.accept_move(["alice"], "shard-1")
        response = self.post_install(
            dest, dump(source, ["alice"]), system.broker.store_keys[dest.host]
        )
        assert response.status == 403, response.body
        assert dump(dest, ["alice"]) == []

    def test_a_cutover_ends_the_key(self, shard_system, monkeypatch):
        """Once the move completes, the key the destination accepted for it
        installs nothing more: the old source is refused with 401."""
        system, (_source, dest) = shard_system
        keys, accept = [], DataStoreService.accept_move
        monkeypatch.setattr(DataStoreService, "accept_move",
                            lambda service, *args: keys.append(accept(service, *args)) or keys[-1])
        assert system.broker.rebalancer.migrate(["alice"], "shard-2")["Moved"] == 1
        assert self.post_install(dest, [], keys[0]).status == 401

    def test_a_restart_ends_the_key_and_a_retried_move_accepts_again(
        self, shard_system, monkeypatch
    ):
        """The destination restarts between the accept and the send: the
        send is refused with the dead key, and the retry is let in."""
        system, (source, dest) = shard_system
        stale = dest.accept_move(["alice"], "shard-1")
        routes = source.router._routes
        send = routes["POST /api/migrate/send"]

        def restart_dest_then_send(request):
            dest.durability.close()
            system.network.unregister_host(dest.host)
            fresh = DataStoreService(
                dest.host, system.network, directory=dest.directory, durable=True,
                seed=system.seed,
            )
            system.stores[dest.host] = fresh
            assert system.reconcile(fresh)["failed"] == 0
            monkeypatch.setitem(routes, "POST /api/migrate/send", send)
            return send(request)

        monkeypatch.setitem(routes, "POST /api/migrate/send", restart_dest_then_send)
        with pytest.raises(AuthenticationError):
            system.broker.rebalancer.migrate(["alice"], "shard-2")
        fresh = system.stores["shard-2"]
        assert fresh is not dest and dump(fresh, ["alice"]) == []
        assert system.broker.registry.get("alice").host == "shard-1"
        assert self.post_install(fresh, dump(source, ["alice"]), stale).status == 401
        assert system.broker.rebalancer.migrate(["alice"], "shard-2")["Moved"] == 1
        assert len(fresh.store.segments_of("alice")) == 1


def test_dumps_are_not_scans(shard_system):
    """``store_segments_scanned_total`` counts query candidates only: a
    checkpoint and a migration read whole ranges and leave it alone."""
    system, (source, dest) = shard_system
    bob = system.add_consumer("bob")
    bob.add_contributors(["alice", "ben"])
    metrics = system.network.obs.metrics

    def scanned():
        return [metrics.counter_value("store_segments_scanned_total", store=s.host)
                for s in (source, dest)]

    before = scanned()
    source.checkpoint()
    assert system.broker.rebalancer.migrate(["alice"], dest.host)["Moved"] == 1
    dest.checkpoint()
    assert scanned() == before
    assert len(bob.fetch("ben")) == 1
    assert scanned() == [before[0] + len(source.store.segments_of("ben")), before[1]]
