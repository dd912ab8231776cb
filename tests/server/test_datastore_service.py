"""Tests for the remote data store service: auth layers and APIs."""

import pytest

from repro.datastore.query import DataQuery
from repro.net.client import HttpClient
from repro.net.transport import Network
from repro.rules.model import ALLOW, Rule
from repro.rules.parser import rule_to_json
from repro.server.datastore_service import DataStoreService
from repro.util.geo import BoundingBox, LabeledPlace

from tests.conftest import MONDAY, UCLA, broker_pushes, make_segment, released_pieces


@pytest.fixture()
def setup():
    network = Network()
    service = DataStoreService("store", network)
    alice_key = service.register_contributor("alice")
    bob_key = service.register_consumer("bob")
    alice = HttpClient(network, "alice", alice_key)
    bob = HttpClient(network, "bob", bob_key)
    return network, service, alice, bob


def upload(alice, n=3):
    # Distinct context per segment keeps the optimizer from merging them,
    # so tests can reason about per-segment releases.
    segments = [
        make_segment(
            start_ms=MONDAY + i * 16_000,
            n=16,
            context={"Activity": "Still", "Stress": ["NotStressed", "Stressed"][i % 2]},
        )
        for i in range(n)
    ]
    body = alice.post(
        "https://store/api/upload",
        {"Contributor": "alice", "Segments": [s.to_json() for s in segments]},
    )
    alice.post("https://store/api/flush", {"Contributor": "alice"})
    return body


class TestAuthLayer:
    """Fig. 2: every access goes through user authentication first."""

    def test_no_key_is_401(self, setup):
        network, *_ = setup
        response = network.request(
            "POST", "https://store/api/query", {"Contributor": "alice"}
        )
        assert response.status == 401

    def test_bad_key_is_401(self, setup):
        network, *_ = setup
        response = network.request(
            "POST", "https://store/api/query", {"Contributor": "alice", "ApiKey": "x" * 64}
        )
        assert response.status == 401

    def test_consumer_cannot_upload(self, setup):
        _, _, _, bob = setup
        response = bob.post(
            "https://store/api/upload",
            {"Contributor": "alice", "Segments": []},
            raw=True,
        )
        assert response.status == 403

    def test_contributor_cannot_upload_for_others(self, setup):
        _, service, alice, _ = setup
        service.register_contributor("carol")
        response = alice.post(
            "https://store/api/upload", {"Contributor": "carol", "Segments": []}, raw=True
        )
        assert response.status == 403

    def test_cannot_upload_segments_owned_by_others(self, setup):
        _, _, alice, _ = setup
        seg = make_segment(contributor="carol")
        response = alice.post(
            "https://store/api/upload",
            {"Contributor": "alice", "Segments": [seg.to_json()]},
            raw=True,
        )
        assert response.status == 403

    def test_broker_endpoints_restricted(self, setup):
        _, _, alice, _ = setup
        response = alice.post(
            "https://store/api/profiles", {"Contributors": ["alice"]}, raw=True
        )
        assert response.status == 403


class TestARefusedUploadLeavesNothingBehind:
    """``/api/upload`` is decode-then-ingest, as ``/api/upload_packets`` is
    since PR 19: at 3541740 a request refused for its third segment had
    already put its first two into the optimizer, and the next flush —
    anyone's, on a shared store — made them durable."""

    @pytest.fixture()
    def durable(self, tmp_path):
        network = Network()
        service = DataStoreService("store", network, directory=str(tmp_path), durable=True)
        return network, service, HttpClient(network, "alice", service.register_contributor("alice"))

    @staticmethod
    def state_of(network, service):
        return (
            {key: (run.n_samples, len(run.parts))
             for key, run in service.store.optimizer._buffers.items()},
            network.obs.metrics.gauge_value("store_segments", store="store"),
            network.obs.metrics.gauge_value("store_samples", store="store"),
            service.durability.wal.last_lsn,
            list(service.store._ingested_ids),
        )  # fmt: skip

    @pytest.mark.parametrize("already_open", [False, True], ids=["empty", "open-run"])
    @pytest.mark.parametrize(
        "third, status",
        [
            ({**make_segment().to_json(), "Format": ["ECG", "ECG"]}, 400),
            ({k: v for k, v in make_segment().to_json().items() if k != "Values"}, 400),
            (make_segment(contributor="carol", start_ms=MONDAY + 48_000).to_json(), 403),
        ],
        ids=["malformed", "incomplete", "someone-else's"],
    )
    def test_the_first_two_segments_of_a_refused_request_are_not_ingested(
        self, durable, third, status, already_open
    ):
        network, service, alice = durable
        if already_open:  # the refused request's first segment would extend this run
            alice.post(
                "https://store/api/upload",
                {"Contributor": "alice", "Segments": [make_segment(start_ms=MONDAY).to_json()]},
            )
        good = [make_segment(start_ms=MONDAY + 16_000 * i).to_json() for i in (1, 2)]
        before = self.state_of(network, service)
        response = alice.post(
            "https://store/api/upload",
            {"Contributor": "alice", "Segments": [*good, third]},
            raw=True,
        )
        assert response.status == status, response.body
        assert self.state_of(network, service) == before
        assert len(before[0]) == already_open and before[1] == 0
        flushed = alice.post("https://store/api/flush", {"Contributor": "alice"})
        assert flushed == {"Finalized": int(already_open)}
        assert service.store.stats.n_samples == 16 * already_open
        # the same two segments in a request that is right are accepted
        reply = alice.post("https://store/api/upload", {"Contributor": "alice", "Segments": good})
        assert reply == {"Accepted": 2, "Finalized": 0, "Duplicates": 0}


class TestRegistration:
    def test_register_route_issues_key(self, setup):
        network, _, _, _ = setup
        response = network.request(
            "POST",
            "https://store/api/register",
            {"Username": "dora", "Role": "contributor"},
        )
        assert response.ok
        assert len(response.body["ApiKey"]) == 64

    def test_register_requires_fields(self, setup):
        network, _, _, _ = setup
        response = network.request("POST", "https://store/api/register", {"Username": "x"})
        assert response.status == 400

    def test_duplicate_registration_conflict(self, setup):
        network, _, _, _ = setup
        body = {"Username": "alice", "Role": "contributor"}
        assert network.request("POST", "https://store/api/register", body).status == 409


class TestUploadAndQuery:
    def test_upload_and_owner_view(self, setup):
        _, _, alice, _ = setup
        body = upload(alice)
        assert body["Accepted"] == 3
        view = alice.post(
            "https://store/api/query",
            {"Contributor": "alice", "Query": DataQuery().to_json()},
        )
        assert view["Raw"] is True
        assert len(view["Segments"]) >= 1

    def test_upload_packets_merges(self, setup):
        _, service, alice, _ = setup
        from repro.sensors.packets import encode_upload, packetize

        packets = packetize("ECG", MONDAY, 250, list(range(256)), location=UCLA)
        alice.post(
            "https://store/api/upload_packets",
            {"Contributor": "alice", "Upload": encode_upload(packets)},
        )
        alice.post("https://store/api/flush", {"Contributor": "alice"})
        assert service.store.stats.n_segments == 1  # merged into one segment

    def test_consumer_query_default_deny(self, setup):
        _, _, alice, bob = setup
        upload(alice)
        body = bob.post(
            "https://store/api/query",
            {"Contributor": "alice", "Query": DataQuery().to_json()},
        )
        assert body["Raw"] is False
        assert released_pieces(body) == []

    def test_consumer_query_after_allow(self, setup):
        _, _, alice, bob = setup
        upload(alice)
        alice.post(
            "https://store/api/rules/add",
            {"Contributor": "alice", "Rule": rule_to_json(Rule(consumers=("bob",), action=ALLOW))},
        )
        body = bob.post(
            "https://store/api/query",
            {"Contributor": "alice", "Query": DataQuery().to_json()},
        )
        assert len(released_pieces(body)) == 3

    def test_query_unknown_contributor_404(self, setup):
        _, _, _, bob = setup
        response = bob.post(
            "https://store/api/query",
            {"Contributor": "ghost", "Query": {}},
            raw=True,
        )
        assert response.status == 404

    def test_query_requires_contributor(self, setup):
        _, _, _, bob = setup
        assert bob.post("https://store/api/query", {}, raw=True).status == 400

    def test_stats_endpoint(self, setup):
        _, _, alice, _ = setup
        upload(alice)
        stats = alice.post("https://store/api/stats", {})
        assert stats["Samples"] == 48


class TestRulesApi:
    def test_add_list_remove(self, setup):
        _, _, alice, _ = setup
        rule = Rule(consumers=("bob",), action=ALLOW)
        added = alice.post(
            "https://store/api/rules/add",
            {"Contributor": "alice", "Rule": rule_to_json(rule)},
        )
        assert added["Version"] == 1
        listed = alice.post("https://store/api/rules/list", {"Contributor": "alice"})
        assert len(listed["Rules"]) == 1
        alice.post(
            "https://store/api/rules/remove",
            {"Contributor": "alice", "RuleId": added["RuleId"]},
        )
        listed = alice.post("https://store/api/rules/list", {"Contributor": "alice"})
        assert listed["Rules"] == []

    def test_malformed_rule_is_400(self, setup):
        _, _, alice, _ = setup
        response = alice.post(
            "https://store/api/rules/add",
            {"Contributor": "alice", "Rule": {"Action": "Perhaps"}},
            raw=True,
        )
        assert response.status == 400

    def test_consumer_cannot_touch_rules(self, setup):
        _, _, _, bob = setup
        response = bob.post(
            "https://store/api/rules/list", {"Contributor": "alice"}, raw=True
        )
        assert response.status == 403

    def test_rules_download_includes_places(self, setup):
        _, _, alice, _ = setup
        alice.post(
            "https://store/api/places/set",
            {
                "Contributor": "alice",
                "Places": [
                    LabeledPlace("UCLA", BoundingBox(34.0, -118.5, 34.1, -118.4)).to_json()
                ],
            },
        )
        body = alice.post("https://store/api/rules/download", {"Contributor": "alice"})
        assert body["Places"][0]["Label"] == "UCLA"


class TestBrokerPairing:
    def test_profile_requires_broker_key(self, setup):
        network, service, alice, _ = setup
        broker_key = service.pair_broker("", "")
        broker = HttpClient(network, "broker", broker_key)
        body = broker.post("https://store/api/profiles", {"Contributors": ["alice"]})
        [profile] = body["Profiles"]
        assert profile["Contributor"] == "alice"
        assert profile["Host"] == "store"

    def test_membership_set(self, setup):
        network, service, _, _ = setup
        broker_key = service.pair_broker("", "")
        broker = HttpClient(network, "broker", broker_key)
        body = broker.post(
            "https://store/api/enroll",
            {"Consumer": "bob", "Groups": ["stress-study"]},
        )
        assert service._membership("bob") == {"bob", "stress-study"}
        # bob was enrolled by the fixture: his key is answered, not rotated
        assert body["ApiKey"] == service.keys.key_of("bob")

    def test_rule_change_pushes_profile(self, setup):
        network, service, alice, _ = setup
        pushed = broker_pushes(network)
        service.pair_broker("broker", "push-key")
        alice.post(
            "https://store/api/rules/add",
            {
                "Contributor": "alice",
                "Rule": rule_to_json(Rule(consumers=("bob",), action=ALLOW)),
            },
        )
        assert len(pushed) == 1
        assert pushed[0]["Contributor"] == "alice"
        assert pushed[0]["Version"] == 1
