"""A moved contributor is a role row at the store she left.

Every access is regulated by the owner's *current* rules, and an owner
may change them at her new store right after a shard move.  The store she
left fenced her with a map held in memory: a restarted source and a
promoted source replica forgot it and served her under the rules she had
left behind, and a store she moved back to kept fencing her — and, with
the fence lifted, kept the segments she had deleted while away.  In
repros (a)–(c) the owner adds ``Deny bob`` at her new store.  Every test
below failed while the fence lived outside the record vocabulary.
"""

import pytest

from repro.core import SensorSafeSystem
from repro.datastore.query import DataQuery
from repro.rules.model import ALLOW, DENY, Rule
from repro.server.datastore_service import DataStoreService
from repro.storage import records
from repro.util.timeutil import Interval

from tests.broker.test_failover import detect_and_fail_over, kill
from tests.conftest import MONDAY, make_segment

ALLOW_BOB = Rule(consumers=("bob",), action=ALLOW)
DENY_BOB = Rule(consumers=("bob",), action=DENY)
HOUR = 3_600_000


def restart(system, host):
    """Crash ``host`` and bring it back from its directory, reconciled."""
    store = system.stores[host]
    store.durability.close()
    system.network.unregister_host(host)
    fresh = DataStoreService(
        host, system.network, directory=store.directory, durable=True, seed=system.seed
    )
    system.stores[host] = fresh
    assert system.reconcile(fresh)["failed"] == 0
    return fresh


def bob_query(system, host, contributor):
    """bob's ``/api/query`` at ``host``, with the key the broker escrows there."""
    key = system.broker.escrow.key_for("bob", host)
    body = {"Contributor": contributor, "ApiKey": key}
    return system.network.request("POST", f"https://{host}/api/query", body)


def assert_fenced(response):
    assert response.status == 409, response.body
    assert response.body["ErrorKind"] == "NotPrimaryError"


def owner(system, name, store, segments):
    person = system.add_contributor(name, store=store)
    person.add_rule(ALLOW_BOB)
    person.upload_segments(segments)
    person.flush()
    return person


def split_dora(tmp_path):
    """dora ring-routes to shard-2, so the split moves her; there she denies bob."""
    system = SensorSafeSystem(seed=7)
    (source,) = system.create_shard_fleet(1, directory=str(tmp_path), durable=True)
    owner(system, "dora", source, [make_segment(contributor="dora")])
    bob = system.add_consumer("bob")
    bob.add_contributors(["dora"])
    system.split_shard("shard-1", "shard-2", directory=str(tmp_path), durable=True)
    assert system.broker.registry.get("dora").host == "shard-2"
    system.repoint_contributor("dora").add_rule(DENY_BOB)
    return system, bob


class TestTheSourceRemembers:
    def test_a_restarted_source_fences_her(self, tmp_path):
        """Repro (a): the restart replays the fence from the source's log."""
        system, _ = split_dora(tmp_path)
        source = restart(system, "shard-1")
        assert_fenced(bob_query(system, "shard-1", "dora"))
        assert source.roles["dora"] == records.ROLE_MOVED
        assert "dora" not in source.credentials  # nobody can re-key her there
        rekey = {"Username": "dora", "Role": "contributor", "Password": "pw"}
        assert system.network.request("POST", "https://shard-1/api/register", rekey).status == 409

    def test_a_stale_route_is_redirected_after_the_source_restarts(self, tmp_path):
        """Repro (b): bob's cached route still says shard-1."""
        system, bob = split_dora(tmp_path)
        assert bob._hosts["dora"] == "shard-1"
        restart(system, "shard-1")
        bob.refresh_keys()  # the restart rotated his key there
        assert bob.fetch("dora") == []  # her deny, read at her new store
        assert bob._hosts["dora"] == "shard-2"

    def test_a_promoted_source_replica_fences_her(self, tmp_path):
        """Repro (c): the fence shipped under its own ack, so the replica has it."""
        system = SensorSafeSystem(seed=7)
        clinic = system.create_replicated_store(
            "clinic", directory=str(tmp_path / "clinic"), n_replicas=1
        )
        system.create_store("shard-1", directory=str(tmp_path / "shard-1"), durable=True)
        owner(system, "alice", clinic, [make_segment()])
        bob = system.add_consumer("bob")
        bob.add_contributors(["alice"])
        system.broker.rebalancer.migrate(["alice"], "shard-1")
        system.repoint_contributor("alice").add_rule(DENY_BOB)
        kill(system, "clinic")
        assert detect_and_fail_over(system, "clinic")["Promoted"] == "clinic-r1"
        assert_fenced(bob_query(system, "clinic-r1", "alice"))
        assert bob.fetch("alice") == []


def moved_back(tmp_path):
    """alice moves shard-1 → shard-2, deletes one of two segments there, moves back."""
    system = SensorSafeSystem(seed=7)
    for host in ("shard-1", "shard-2"):
        system.create_store(host, directory=str(tmp_path / host), durable=True)
    segments = [make_segment(start_ms=MONDAY), make_segment(start_ms=MONDAY + HOUR)]
    owner(system, "alice", system.stores["shard-1"], segments)
    bob = system.add_consumer("bob")
    bob.add_contributors(["alice"])
    assert len(bob.fetch("alice")) == 2
    migrate = system.broker.rebalancer.migrate
    migrate(["alice"], "shard-2")
    away = DataQuery(time_range=Interval(MONDAY + HOUR, MONDAY + 2 * HOUR))
    assert system.repoint_contributor("alice").delete_data(away) == 1
    migrate(["alice"], "shard-1")
    assert system.broker.registry.get("alice").host == "shard-1"
    return system, bob, system.repoint_contributor("alice")


class TestMovingBack:
    def test_moving_back_lifts_the_fence(self, tmp_path):
        """Repro (d): the contributor row that comes back replaces the fence."""
        system, bob, _ = moved_back(tmp_path)
        assert bob.fetch("alice")
        assert bob._hosts["alice"] == "shard-1"
        assert system.stores["shard-1"].roles["alice"] == records.ROLE_CONTRIBUTOR
        assert system.stores["shard-2"].roles["alice"] == records.ROLE_MOVED

    def test_bob_gets_exactly_the_pieces_she_still_holds(self, tmp_path):
        """Repro (e): what stayed behind at shard-1 predates her delete."""
        system, bob, alice = moved_back(tmp_path)
        assert len(bob.fetch("alice")) == len(alice.view_data()) == 1

    def test_a_restart_after_moving_back_keeps_what_she_deleted_gone(self, tmp_path):
        """The drop replays from the log: fence, then the row that lifts it."""
        system, bob, _ = moved_back(tmp_path)
        restart(system, "shard-1")
        bob.refresh_keys()
        assert len(bob.fetch("alice")) == 1


@pytest.mark.parametrize("durable", [True, False], ids=["wal-tail", "dump"])
def test_the_drain_carries_no_fence(tmp_path, durable):
    """After a split, every moved contributor's row at the destination is her
    contributor row with its credential and no fence, whether the source
    keeps a log (``wal-tail``) or not (``dump``)."""
    system = SensorSafeSystem(seed=7)
    directory = str(tmp_path) if durable else None
    (source,) = system.create_shard_fleet(1, directory=directory, durable=durable)
    names = [f"user-{i}" for i in range(10)]
    for name in names:
        owner(system, name, source, [make_segment(contributor=name)])
    report = system.split_shard("shard-1", "shard-2", directory=directory, durable=durable)
    dest = system.stores["shard-2"]
    moved = [name for name in names if system.broker.registry.get(name).host == "shard-2"]
    assert moved and len(moved) == report["Moved"]
    for name in moved:
        assert source.roles[name] == records.ROLE_MOVED and name not in source.credentials
        assert dest.roles[name] == records.ROLE_CONTRIBUTOR and name in dest.credentials
