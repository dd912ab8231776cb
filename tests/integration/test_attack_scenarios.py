"""Attack-scenario analysis — the paper's future work, executed.

"In order to improve security of the SensorSafe architecture, we will
analyze our system for various attack scenarios and implement appropriate
security mechanisms."  Each test plays one attacker against the live
system and asserts the mechanism that stops them.
"""

import pytest

from repro.datastore.query import DataQuery
from repro.exceptions import (
    AuthenticationError,
    AuthorizationError,
    InsecureTransportError,
)
from repro.rules.model import ALLOW, Rule
from repro.rules.parser import rule_to_json, rules_to_json

from tests.conftest import make_segment


@pytest.fixture()
def deployment(system):
    alice = system.add_contributor("alice")
    alice.upload_segments([make_segment(n=16)])
    alice.flush()
    alice.add_rule(Rule(consumers=("bob",), action=ALLOW))
    bob = system.add_consumer("bob")
    bob.add_contributors(["alice"])
    return system, alice, bob


class TestCredentialAttacks:
    def test_guessed_api_key_rejected(self, deployment):
        """Brute-forcing a 256-bit SHA key space is hopeless; any guess
        that isn't an issued key is a 401."""
        system, _, _ = deployment
        for guess in ("0" * 64, "f" * 64, "a1b2" * 16):
            response = system.network.request(
                "POST",
                "https://alice-store/api/query",
                {"Contributor": "alice", "ApiKey": guess},
            )
            assert response.status == 401

    def test_stolen_key_dies_on_rotation(self, deployment):
        """Key theft is recoverable: re-issuing rotates the old key out."""
        system, _, bob = deployment
        stolen = bob.refresh_keys()["alice-store"]
        store = system.stores["alice-store"]
        store.keys.issue("bob")  # bob re-registers after the theft
        response = system.network.request(
            "POST",
            "https://alice-store/api/query",
            {"Contributor": "alice", "ApiKey": stolen},
        )
        assert response.status == 401

    def test_api_key_never_travels_insecurely(self, deployment):
        """A downgrade attack (http) cannot exfiltrate keys in transit."""
        system, _, bob = deployment
        key = bob.refresh_keys()["alice-store"]
        with pytest.raises(InsecureTransportError):
            system.network.request(
                "POST", "http://alice-store/api/query", {"ApiKey": key}
            )

    def test_broker_key_for_one_store_useless_at_another(self, deployment):
        """Per-server secrets: a key issued by one store authenticates
        nowhere else."""
        system, _, bob = deployment
        carol = system.add_contributor("carol")
        key_at_alice = bob.refresh_keys()["alice-store"]
        response = system.network.request(
            "POST",
            "https://carol-store/api/query",
            {"Contributor": "carol", "ApiKey": key_at_alice},
        )
        assert response.status == 401


class TestImpersonationAttacks:
    def test_consumer_cannot_write_victims_data(self, deployment):
        """A consumer with read access cannot plant segments."""
        system, _, bob = deployment
        key = bob.refresh_keys()["alice-store"]
        forged = make_segment(contributor="alice", n=4)
        response = bob.client.with_key(key).post(
            "https://alice-store/api/upload",
            {"Contributor": "alice", "Segments": [forged.to_json()]},
            raw=True,
        )
        assert response.status == 403

    def test_consumer_cannot_edit_victims_rules(self, deployment):
        """Privilege escalation via the rules API is blocked by role."""
        system, _, bob = deployment
        key = bob.refresh_keys()["alice-store"]
        open_everything = rules_to_json([Rule(action=ALLOW)])
        response = bob.client.with_key(key).post(
            "https://alice-store/api/rules/replace",
            {"Contributor": "alice", "Rules": open_everything},
            raw=True,
        )
        assert response.status == 403

    def test_cotenant_cannot_poison_neighbors_data(self, system):
        """On a shared institutional store, one participant cannot upload
        segments owned by another."""
        store = system.create_store("lab")
        system.add_contributor("alice", store=store)
        mallory = system.add_contributor("mallory", store=store)
        forged = make_segment(contributor="alice", n=4)
        response = mallory.client.post(
            "https://lab/api/upload",
            {"Contributor": "alice", "Segments": [forged.to_json()]},
            raw=True,
        )
        assert response.status == 403

    def test_search_cannot_impersonate_another_consumer(self, deployment):
        """Searching as someone with broader access would leak which
        contributors share with *them*."""
        system, _, bob = deployment
        response = bob.client.post(
            "https://broker/api/search",
            {"Criteria": {"Consumer": "someone-else", "Sensor": ["ECG"]}},
            raw=True,
        )
        assert response.status == 403


class TestSyncAttacks:
    def test_rogue_host_cannot_push_profiles(self, deployment):
        """Only paired stores (holding store keys) may sync rules."""
        system, _, bob = deployment
        response = bob.client.post(
            "https://broker/api/sync",
            {
                "Profile": {
                    "Contributor": "alice",
                    "Host": "alice-store",
                    "Version": 99,
                    "Rules": [rule_to_json(Rule(action=ALLOW))],
                }
            },
            raw=True,
        )
        assert response.status == 403
        # The broker's mirror is untouched.
        assert system.broker.registry.get("alice").rules_version == 1

    def test_store_cannot_forge_profiles_for_other_stores(self, deployment):
        """A compromised store cannot rewrite the broker's view of users
        it does not host (limits blast radius of a store breach)."""
        system, _, _ = deployment
        system.add_contributor("carol")
        from repro.net.client import HttpClient

        alice_store_key = system.broker.keys.key_of("store:alice-store")
        rogue = HttpClient(system.network, "alice-store", alice_store_key)
        response = rogue.post(
            "https://broker/api/sync",
            {
                "Profile": {
                    "Contributor": "carol",
                    "Host": "carol-store",
                    "Version": 99,
                    "Rules": [rule_to_json(Rule(action=ALLOW))],
                }
            },
            raw=True,
        )
        assert response.status == 403

    def test_a_paired_store_cannot_take_over_another_stores_contributor(self, deployment):
        """Anyone can register ``alice`` at a store she never used, and that
        store pushes every rule added there.  The pushes must not move her
        route: a moved route enrolls new consumers at the wrong store and
        drops her own next edit as stale."""
        system, alice, bob = deployment
        assert bob.fetch("alice")
        system.create_store("mallory-store")
        broker = system.broker
        epoch = broker.directory.routing_epoch
        squat = {"Username": "alice", "Role": "contributor"}
        key = system.network.request("POST", "https://mallory-store/api/register", squat).body["ApiKey"]
        pushed = []
        for consumer in ("mallory", "mallet", "eve"):
            rule = rule_to_json(Rule(consumers=(consumer,), action=ALLOW))
            body = {"Contributor": "alice", "Rule": rule, "ApiKey": key}
            pushed.append(system.network.request("POST", "https://mallory-store/api/rules/add", body))
        record = broker.registry.get("alice")
        assert (record.host, broker.directory.routing_epoch) == ("alice-store", epoch)
        # The broker refused every push, and a push is only a hint: the
        # edits stand at mallory-store, and nothing moved at the broker.
        assert [r.status for r in pushed] == [200] * 3
        assert system.stores["mallory-store"].rules.version_of("alice") == 3
        own = system.stores["alice-store"].rules.snapshot("alice")
        assert (record.rules_version, record.rules) == (1, own.rules)
        carol = system.add_consumer("carol")
        assert carol.add_contributors(["alice"]) == {"alice": "alice-store"}
        assert broker.escrow.key_for("carol", "mallory-store") is None
        alice.add_rule(Rule(consumers=("carol",), action=ALLOW))
        assert broker.registry.get("alice").rules_version == 2

    def test_a_paired_store_cannot_register_a_name_by_pushing(self, deployment):
        """A push only updates the mirror of a name the broker already
        routes.  A push for a name nobody has registered is refused with
        nothing recorded, so the name stays free for its owner's signup
        and no consumer is routed to the pushing store."""
        from repro.net.client import HttpClient

        system, _, bob = deployment
        broker = system.broker
        rogue = HttpClient(system.network, "alice-store", broker.keys.key_of("store:alice-store"))
        profile = {
            "Contributor": "dave",
            "Host": "alice-store",
            "Version": 1,
            "Rules": [rule_to_json(Rule(action=ALLOW))],
        }
        response = rogue.post("https://broker/api/sync", {"Profile": profile}, raw=True)
        assert (response.status, response.body["ErrorKind"]) == (404, "NotFoundError")
        assert "dave" not in broker.registry
        system.add_contributor("dave")
        assert bob.add_contributors(["dave"]) == {"dave": "dave-store"}
        assert broker.registry.get("dave").rules == ()

    def test_a_refused_push_fails_no_owner_edit(self, deployment):
        """A push the broker refuses is not the owner's answer: her
        revocation answers 200 and is enforced, the route and the mirror
        stay where they were, and the next pull round repairs the mirror."""
        from repro.net.faults import FaultPlan

        system, alice, bob = deployment
        broker = system.broker
        epoch = broker.directory.routing_epoch
        plan = FaultPlan(seed=0)
        plan.add_error("broker", path="/api/sync", status=403)
        system.install_faults(plan)
        body = {"Contributor": "alice", "Rules": [], "ApiKey": alice.client.api_key}
        response = system.network.request("POST", "https://alice-store/api/rules/replace", body)
        assert (response.status, response.body["Version"]) == (200, 2)
        assert bob.fetch("alice") == []
        record = broker.registry.get("alice")
        assert (record.host, broker.directory.routing_epoch) == ("alice-store", epoch)
        assert (record.rules_version, len(record.rules)) == (1, 1)
        system.install_faults(None)
        assert broker.pull_profiles() == 1
        assert (record.rules_version, record.rules) == (2, ())

    def test_replayed_stale_profile_ignored(self, deployment):
        """Replaying an old (more permissive) rule snapshot does not roll
        the broker's mirror back — version monotonicity."""
        system, alice, _ = deployment
        permissive_profile = system.stores["alice-store"]._profile_json("alice")
        # Alice tightens her rules.
        alice.replace_rules([])
        assert system.broker.registry.get("alice").rules == ()
        # Attacker replays the old profile through the legitimate channel.
        applied = system.broker.sync.apply_profile(permissive_profile)
        assert not applied
        assert system.broker.registry.get("alice").rules == ()


class TestInferenceAttacks:
    def test_denied_context_not_reinferable(self, system):
        """The C4 property as a regression test: deny smoking, share the
        rest raw — no respiration reaches the consumer."""
        from repro.rules.model import abstraction

        alice = system.add_contributor("alice")
        alice.upload_segments(
            [make_segment(channels=("ECG", "Respiration", "MicAmplitude"), n=8)]
        )
        alice.flush()
        alice.add_rule(Rule(consumers=("bob",), action=ALLOW))
        alice.add_rule(Rule(consumers=("bob",), action=abstraction(Smoking="NotShare")))
        bob = system.add_consumer("bob")
        bob.add_contributors(["alice"])
        received = bob.fetch("alice")
        assert all("Respiration" not in item.channels() for item in received)

    def test_aggregate_queries_cannot_bypass_rules(self, system):
        """Asking for a mean over denied data returns nothing — aggregates
        run behind the rule engine, not beside it."""
        from repro.datastore.aggregate import AggregateSpec

        alice = system.add_contributor("alice")
        alice.upload_segments([make_segment(channels=("ECG",), n=60)])
        alice.flush()  # no rules at all: default deny
        bob = system.add_consumer("bob")
        bob.add_contributors(["alice"])
        rows = bob.fetch_aggregate("alice", AggregateSpec("mean", 60_000))
        assert rows == []


class TestWebSessionAttacks:
    def test_forged_session_token_rejected(self, deployment):
        from repro.server.webui import DataStoreWebUI

        system, _, _ = deployment
        DataStoreWebUI(system.stores["alice-store"])
        response = system.network.request(
            "POST", "https://alice-store/web/rules", {"Token": "deadbeef" + "0" * 56}
        )
        assert response.status == 401

    def test_password_guess_rejected_and_no_token_leaks(self, deployment):
        from repro.server.webui import DataStoreWebUI

        system, _, _ = deployment
        DataStoreWebUI(system.stores["alice-store"])
        response = system.network.request(
            "POST",
            "https://alice-store/web/login",
            {"Username": "alice", "Password": "guess"},
        )
        assert response.status == 401
        assert "Token" not in response.body
