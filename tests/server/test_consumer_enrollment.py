"""A consumer exists at a store only as the broker enrolls it.

Table 1's Consumer condition names a user or a group, and a rule with no
Consumer applies to everyone, so a group-scoped deny holds only while the
store knows every group its consumers belong to.  Those groups ride the
consumer's ``role`` record (``{"Principal", "Role", "Groups"}``), written
by the broker-only ``/api/enroll`` — so they survive a restart, ship to
replicas, and cannot be claimed through the open ``/api/register``.  Each
test below released data its rules deny before that was so.
"""

import shutil
from pathlib import Path

import pytest

from repro.core import SensorSafeSystem
from repro.exceptions import AuthorizationError, ServiceError
from repro.net.faults import FaultPlan
from repro.rules.model import ALLOW, DENY, Rule
from repro.server.datastore_service import DataStoreService
from repro.storage import records

from tests.conftest import make_segment, released_pieces

#: ``[Allow everyone; Deny insurers]``: deny dominance on a group.
INSURERS_DENIED = [Rule(action=ALLOW), Rule(consumers=("insurers",), action=DENY)]
#: ``[Allow research-group; Allow bob]``: a group and a user are both names.
NAMED_ALLOWED = [
    Rule(consumers=("research-group",), action=ALLOW),
    Rule(consumers=("bob",), action=ALLOW),
]


def with_alice(system, rules, **store_options):
    """alice on her own store, one 8-sample ECG segment, ``rules``."""
    store = system.create_store("alice-store", **store_options)
    alice = system.add_contributor("alice", store=store)
    alice.upload_segments([make_segment(n=8)])
    alice.flush()
    for rule in rules:
        alice.add_rule(rule)
    return store


def insurer(system, name="bob"):
    """A consumer in the ``insurers`` study (created by someone else)."""
    if "insurers" not in system.broker.studies.studies():
        system.add_consumer("ins-admin").create_study("insurers")
    consumer = system.add_consumer(name)
    consumer.join_study("insurers")
    return consumer


def restart(system, store):
    """Close a durable store and start a new process on its directory."""
    store.durability.close()
    system.network.unregister_host(store.host)
    fresh = DataStoreService(
        store.host, system.network, directory=store.directory, durable=True
    )
    system.stores[store.host] = fresh
    return fresh


class TestRestart:
    """(a) A recovered store still knows bob is an insurer."""

    @pytest.fixture()
    def restarted(self, tmp_path):
        system = SensorSafeSystem()
        store = with_alice(
            system, INSURERS_DENIED, directory=str(tmp_path), durable=True
        )
        bob = insurer(system)
        bob.add_contributors(["alice"])
        assert bob.fetch("alice") == []
        return system, restart(system, store), bob

    def test_reconcile_re_enrolls_and_the_deny_holds(self, restarted):
        system, store, bob = restarted
        assert store._membership("bob") == {"bob", "insurers"}  # from the log
        system.reconcile(store)
        bob.refresh_keys()
        assert bob.fetch("alice") == []

    def test_re_registering_clears_no_recovered_group(self, restarted):
        system, store, bob = restarted
        key = store.register_consumer("bob")  # a fresh key, groups untouched
        body = system.network.request(
            "POST", "https://alice-store/api/query", {"Contributor": "alice", "ApiKey": key}
        ).body
        assert released_pieces(body) == []
        assert store._membership("bob") == {"bob", "insurers"}

    def test_nobody_re_registers_bob_as_a_contributor(self, restarted):
        """Accounts do not survive a restart, but bob's role row does: the
        open contributor door may not overwrite it (and drop his groups)."""
        system, store, _ = restarted
        before = records.dump(store)
        response = system.network.request(
            "POST", "https://alice-store/api/register", {"Username": "bob", "Role": "contributor"}
        )
        assert response.status == 409 and "ApiKey" not in response.body
        assert records.dump(store) == before


class TestLateJoin:
    """(b) Joining after registering reaches the store, rotating nothing."""

    def test_join_after_add_contributors_is_enforced(self):
        system = SensorSafeSystem()
        store = with_alice(system, INSURERS_DENIED)
        system.add_consumer("ins-admin").create_study("insurers")
        bob = system.add_consumer("bob")
        bob.add_contributors(["alice"])
        assert len(bob.fetch("alice")) == 1
        key = store.keys.key_of("bob")
        bob.join_study("insurers")
        assert store._membership("bob") == system.broker._membership("bob")
        assert bob.fetch("alice") == []
        assert store.keys.key_of("bob") == key
        assert system.broker.escrow.key_for("bob", "alice-store") == key

    def test_a_join_one_store_misses_fails_and_its_retry_finishes(self):
        """Every store is tried; until all hold the group the broker does
        not record the join, so no store lags it and a retry completes."""
        system = SensorSafeSystem()
        with_alice(system, INSURERS_DENIED)
        carol_store = system.create_store("carol-store")
        carol = system.add_contributor("carol", store=carol_store)
        for rule in INSURERS_DENIED:
            carol.add_rule(rule)
        system.add_consumer("ins-admin").create_study("insurers")
        bob = system.add_consumer("bob")
        bob.add_contributors(["alice", "carol"])
        stores = system.stores
        plan = FaultPlan()
        plan.add_drop("alice-store", path="/api/enroll")  # first in host order
        system.install_faults(plan)
        with pytest.raises(ServiceError) as refused:
            bob.join_study("insurers")
        assert refused.value.status == 503
        assert stores["carol-store"]._membership("bob") == {"bob", "insurers"}
        assert stores["alice-store"]._membership("bob") == {"bob"}
        assert system.broker._membership("bob") == {"bob"}
        system.install_faults(None)
        system.clock.advance(60_000)  # the broker's breaker half-opens
        bob.join_study("insurers")
        for host in ("alice-store", "carol-store"):
            assert stores[host]._membership("bob") == system.broker._membership("bob")
        assert bob.fetch("alice") == [] and bob.fetch("carol") == []

    def test_creating_a_study_is_joining_it(self):
        system = SensorSafeSystem()
        store = with_alice(system, INSURERS_DENIED)
        bob = system.add_consumer("bob")
        bob.add_contributors(["alice"])
        bob.create_study("insurers")
        assert store._membership("bob") == {"bob", "insurers"}
        assert bob.fetch("alice") == []


class TestNoSelfEnrollment:
    """(c) Nobody claims a consumer's or a group's name at a store."""

    @pytest.mark.parametrize("name", ["bob", "research-group"])
    def test_open_registration_as_a_consumer_is_refused(self, name):
        system = SensorSafeSystem()
        store = with_alice(system, NAMED_ALLOWED)
        before = records.dump(store)
        response = system.network.request(
            "POST", "https://alice-store/api/register", {"Username": name, "Role": "consumer"}
        )
        assert response.status == 403
        assert "ApiKey" not in response.body
        assert name not in store.roles
        assert records.dump(store) == before

    @pytest.mark.parametrize("name", ["bob", "research-group"])
    def test_a_contributor_under_a_consumer_s_name_reads_nothing(self, name):
        """The contributor door stays open, but a key from it reads only
        its own data: another owner's is for enrolled consumers."""
        system = SensorSafeSystem()
        with_alice(system, NAMED_ALLOWED)
        key = system.network.request(
            "POST", "https://alice-store/api/register", {"Username": name, "Role": "contributor"}
        ).body["ApiKey"]
        response = system.network.request(
            "POST", "https://alice-store/api/query", {"Contributor": "alice", "ApiKey": key}
        )
        assert response.status == 403 and "Released" not in response.body

    def test_the_real_consumer_is_still_served(self):
        system = SensorSafeSystem()
        with_alice(system, NAMED_ALLOWED)
        bob = system.add_consumer("bob")
        bob.add_contributors(["alice"])
        assert len(bob.fetch("alice")) == 1


class TestPromotion:
    def test_a_promoted_replica_knows_bob_s_groups_from_shipped_rows(self, tmp_path):
        system = SensorSafeSystem(seed=7)
        primary = system.create_replicated_store(
            "clinic", directory=str(tmp_path), n_replicas=1
        )
        alice = system.add_contributor("alice", store=primary)
        alice.upload_segments([make_segment(n=8)])
        alice.flush()
        for rule in INSURERS_DENIED:
            alice.add_rule(rule)
        bob = insurer(system)
        bob.add_contributors(["alice"])
        replica = system.stores["clinic-r1"]
        # Shipped with the role row: nobody has told the replica anything.
        assert replica._membership("bob") == {"bob", "insurers"}
        assert system.broker.escrow.key_for("bob", "clinic-r1") is None
        system.network.unregister_host("clinic")
        for _ in range(system.broker.failover.miss_threshold):
            system.broker.failover.heartbeat()
        assert system.broker.registry.get("alice").host == "clinic-r1"
        assert bob.fetch("alice") == []


class TestUnvouchedRows:
    """A consumer row written before groups rode it: refused, then enrolled."""

    def test_pre_change_row_is_refused_until_reconcile(self, tmp_path):
        fixture = Path(__file__).parents[1] / "storage" / "fixtures" / "parent_7718e51"
        directory = tmp_path / "st"
        shutil.copytree(fixture / "store", directory)
        system = SensorSafeSystem()
        store = DataStoreService("st", system.network, directory=str(directory), durable=True)
        assert ["role", {"Principal": "bob", "Role": "consumer"}] in [
            list(r) for r in records.dump(store)
        ]
        key = store.keys.issue("bob")  # the key the old store had escrowed
        query = {"Contributor": "alice", "ApiKey": key}
        refused = system.network.request("POST", "https://st/api/query", query)
        assert refused.status == 403
        assert refused.body["ErrorKind"] == AuthorizationError.__name__

        broker = system.broker
        broker.register_contributor("alice", "st")
        broker.escrow.store_key("bob", "st", key)
        assert system.reconcile(store)["failed"] == 0
        assert broker.escrow.key_for("bob", "st") == key  # not rotated
        served = system.network.request("POST", "https://st/api/query", query)
        assert served.status == 200 and released_pieces(served.body)
