"""A contributor's credential is its role record, so no store hands it out.

Section 5.4 gives a store two front doors — API keys, and username/
password login for the web UI — and both used to trust a second,
unjournaled account table.  A restarted store and a promoted replica had
the contributor's ``role`` row but no account, so anyone who knew an
owner's name could register it again and read raw data; a consumer's
store account had a constant password and opened a web session; and the
web UI's rule submit skipped the ``/api/*`` preludes, so it wrote on a
replica and did not ship on a semi-sync primary.  Each test below failed
before the password hash rode the role record and the web pages went
through the declared handlers.
"""

import pytest

from repro.core import SensorSafeSystem
from repro.net import wire
from repro.rules.model import ALLOW, Rule
from repro.server.datastore_service import DataStoreService
from repro.server.webui import DataStoreWebUI
from repro.storage import records

from tests.broker.test_failover import detect_and_fail_over, kill, replicated_system
from tests.conftest import make_segment

SECRET = "correct horse"


def owner_read(network, host, key):
    return network.request(
        "POST", f"https://{host}/api/query", {"Contributor": "alice", "ApiKey": key}
    )


def register(network, host, password=None):
    body = {"Username": "alice", "Role": "contributor"}
    if password is not None:
        body["Password"] = password
    return network.request("POST", f"https://{host}/api/register", body)


def restart(store):
    store.durability.close()
    store.network.unregister_host(store.host)
    return DataStoreService(store.host, store.network, directory=store.directory, durable=True)


def assert_re_keys_only_for_the_password(network, host):
    for guess in ("guess", "pw", ""):
        refused = register(network, host, guess)
        assert refused.status == 401, refused.body
        assert "ApiKey" not in refused.body
    assert register(network, host).status == 409  # a taken name, no password
    key = register(network, host, SECRET).body["ApiKey"]
    read = owner_read(network, host, key)
    assert read.status == 200 and read.body["Raw"] and read.body["Segments"]


class TestReKey:
    """Repro (a): the role row reached the store, so the password did too."""

    def test_restarted_store(self, tmp_path):
        system = SensorSafeSystem()
        store = system.create_store("alice-store", directory=str(tmp_path), durable=True)
        alice = system.add_contributor("alice", store=store, password=SECRET)
        alice.upload_segments([make_segment(n=8)])
        alice.flush()
        restart(store)
        assert_re_keys_only_for_the_password(system.network, "alice-store")

    def test_promoted_replica(self, tmp_path):
        system = SensorSafeSystem(seed=7)
        primary = system.create_replicated_store(
            "alice-store", directory=str(tmp_path), n_replicas=1
        )
        alice = system.add_contributor("alice", store=primary, password=SECRET)
        alice.upload_segments([make_segment(n=8)])
        alice.flush()
        kill(system, "alice-store")
        assert detect_and_fail_over(system)["Promoted"] == "alice-store-r1"
        assert_re_keys_only_for_the_password(system.network, "alice-store-r1")
        alice = system.repoint_contributor("alice", password=SECRET)
        assert alice.store_host == "alice-store-r1"

    def test_a_row_written_before_rows_carried_a_credential_is_refused(self):
        system = SensorSafeSystem()
        store = system.create_store("alice-store")
        DataStoreWebUI(store)
        system.add_contributor("alice", store=store)
        row = {"Principal": "alice", "Role": "contributor"}
        records.apply(store, records.OP_ROLE, row, journal=False)
        assert "alice" not in store.credentials
        assert register(system.network, "alice-store", "pw").status == 401
        login = {"Username": "alice", "Password": "pw"}
        response = system.network.request("POST", "https://alice-store/web/login", login)
        assert response.status == 401


class TestWebLogin:
    @pytest.fixture()
    def system(self):
        system = SensorSafeSystem()
        store = system.create_store("alice-store")
        DataStoreWebUI(store)
        system.add_contributor("alice", store=store, password=SECRET)
        system.add_consumer("bob").add_contributors(["alice"])
        return system

    def login(self, system, username, password):
        body = {"Username": username, "Password": password}
        return system.network.request("POST", "https://alice-store/web/login", body)

    @pytest.mark.parametrize("password", ["pw", "", SECRET])
    def test_an_enrolled_consumer_opens_no_session(self, system, password):
        """Repro (b): bob is enrolled here, and has no password here."""
        response = self.login(system, "bob", password)
        assert response.status == 401 and "Token" not in response.body

    def test_the_owner_s_token_is_the_owner_s_key(self, system):
        token = self.login(system, "alice", SECRET).body["Token"]
        assert token == system.stores["alice-store"].keys.key_of("alice")
        assert self.login(system, "alice", "pw").status == 401


def login(system, host):
    body = {"Username": "alice", "Password": "pw"}
    return system.network.request("POST", f"https://{host}/web/login", body).body["Token"]


def submit(network, host, token):
    form = {"consumers": "carol", "action": "Allow"}
    return network.request(
        "POST", f"https://{host}/web/rules/submit", {"Token": token, "Form": form}
    )


class TestWebSubmitIsTheApi:
    """Repro (c): ``/web/rules/submit`` is ``/api/rules/add``'s guarded path."""

    @pytest.fixture()
    def replicated(self, tmp_path):
        system, alice, _ = replicated_system(tmp_path)
        primary = system.stores["alice-store"]
        DataStoreWebUI(primary)
        DataStoreWebUI(system.stores["alice-store-r1"])
        return system, login(system, "alice-store")

    def versions(self, system):
        hosts = ("alice-store", "alice-store-r1")
        return [system.stores[host].rules.version_of("alice") for host in hosts]

    def test_a_semi_sync_primary_ships_the_rule_under_its_ack(self, replicated):
        system, token = replicated
        before = self.versions(system)
        assert before[0] == before[1]
        assert submit(system.network, "alice-store", token).status == 200
        after = self.versions(system)
        assert after[0] == after[1] == before[0] + 1

    def test_a_replica_refuses_the_submit(self, replicated):
        system, token = replicated
        replica_token = login(system, "alice-store-r1")  # the row shipped, so did the hash
        before = self.versions(system)
        response = submit(system.network, "alice-store-r1", replica_token)
        assert response.status == 409 and response.body["ErrorKind"] == "NotPrimaryError"
        assert self.versions(system) == before

    def test_a_moved_out_contributor_is_fenced(self, replicated):
        system, token = replicated
        broker_key = system.broker.store_keys["alice-store"]
        fence = {"Contributors": ["alice"], "ApiKey": broker_key}
        url = "https://alice-store/api/migrate/"
        fence["Digest"] = records.export_range(system.stores["alice-store"], ["alice"])[1]
        assert system.network.request("POST", url + "fence", fence).status == 200
        assert system.stores["alice-store-r1"].roles["alice"] == records.ROLE_MOVED
        before = self.versions(system)
        response = submit(system.network, "alice-store", token)
        assert response.status == 409 and response.body["ErrorKind"] == "NotPrimaryError"
        assert self.versions(system) == before


def test_no_profile_and_no_consumer_response_carries_the_credential():
    """The credential leaves a store only beside raw samples: ship, bootstrap, migration."""
    system = SensorSafeSystem()
    store = system.create_store("alice-store")
    alice = system.add_contributor("alice", store=store, password=SECRET)
    alice.upload_segments([make_segment(n=8)])
    alice.flush()
    alice.add_rule(Rule(consumers=("bob",), action=ALLOW))
    bob = system.add_consumer("bob")
    bob.add_contributors(["alice"])
    salt, password_hash = store.credentials["alice"]
    broker_key = store.keys.key_of("__broker__")
    bob_key = store.keys.key_of("bob")
    aggregate = {"Aggregate": {"Function": "mean", "WindowMs": 60_000}}
    asked = [(broker_key, "profiles", {}), (broker_key, "profiles", {"Contributors": ["alice"]})] + [
        (bob_key, path, body)
        for path, body in [("query", {}), ("aggregate", aggregate), ("stats", {}),
                           ("health", {}), ("recovery", {})]
    ]
    bodies = [
        system.network.request(
            "POST",
            f"https://alice-store/api/{path}",
            {**body, "Contributor": "alice", "ApiKey": key},
        ).body
        for key, path, body in asked
    ]
    assert "Error" not in str(bodies)
    bodies.append(system.network.request("GET", "https://alice-store/api/metrics").body)
    assert len(bob.fetch("alice")) > 0
    for body in bodies:
        encoded = wire.encode(body)
        assert salt.encode() not in encoded and password_hash.encode() not in encoded
    exported = [data for op, data in records.dump(store, ["alice"]) if op == records.OP_ROLE]
    assert exported[0]["PasswordHash"] == password_hash  # the store-to-store form has it
