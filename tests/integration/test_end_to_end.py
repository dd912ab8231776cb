"""Cross-cutting integration tests: multi-institution topology, direct
data paths, and the architectural invariants of Fig. 1."""

import pytest

from repro.datastore.query import DataQuery
from repro.exceptions import AuthorizationError
from repro.rules.model import ALLOW, Rule
from repro.util.timeutil import Interval

from tests.conftest import MONDAY, make_segment, released_pieces


@pytest.fixture()
def irb_topology(system):
    """Two institutional stores plus a personal store (Section 1's IRB
    requirement: each institution hosts its own participants' data)."""
    ucla = system.create_store("ucla-store", institution="UCLA")
    memphis = system.create_store("memphis-store", institution="U-Memphis")
    contributors = {}
    for i in range(3):
        c = system.add_contributor(f"ucla-{i}", store=ucla)
        contributors[c.name] = c
    for i in range(2):
        c = system.add_contributor(f"memphis-{i}", store=memphis)
        contributors[c.name] = c
    personal = system.add_contributor("indie")
    contributors["indie"] = personal
    for name, contributor in contributors.items():
        contributor.upload_segments([make_segment(contributor=name, n=16)])
        contributor.flush()
        contributor.add_rule(Rule(consumers=("bob",), action=ALLOW))
    bob = system.add_consumer("bob")
    bob.add_contributors(list(contributors))
    return system, contributors, bob


class TestIrbTopology:
    def test_data_stays_at_its_institution(self, irb_topology):
        system, contributors, _ = irb_topology
        assert system.stores["ucla-store"].store.contributors() == [
            "ucla-0",
            "ucla-1",
            "ucla-2",
        ]
        assert system.stores["memphis-store"].store.contributors() == [
            "memphis-0",
            "memphis-1",
        ]

    def test_consumer_reaches_every_institution(self, irb_topology):
        _, contributors, bob = irb_topology
        for name in contributors:
            released = bob.fetch(name)
            assert len(released) == 1, name

    def test_store_compromise_is_contained(self, irb_topology):
        """Unlike the centralized baseline, one breached store exposes
        only its own contributors."""
        system, _, _ = irb_topology
        breached = system.stores["memphis-store"].store
        exposed = set(breached.contributors())
        assert exposed == {"memphis-0", "memphis-1"}
        assert "ucla-0" not in exposed and "indie" not in exposed


class TestDataPath:
    def test_sensor_payload_never_transits_broker(self, irb_topology):
        """Fig. 1 / Section 4: 'The broker is not a performance bottleneck
        because sensor data are directly transferred from each remote data
        store to data consumers.'"""
        system, contributors, bob = irb_topology
        system.network.reset_metrics()
        for name in contributors:
            bob.fetch(name, DataQuery(time_range=Interval(MONDAY, MONDAY + 60_000)))
        broker = system.network.metrics_of("broker")
        stores = sum(
            system.network.metrics_of(h).total_bytes()
            for h in system.network.hosts()
            if h.endswith("-store")
        )
        assert broker.total_bytes() == 0  # fetches go straight to stores
        assert stores > 0

    def test_one_key_per_store_not_per_contributor(self, irb_topology):
        """The escrow holds one key per remote store; institutional stores
        amortize registration across their participants."""
        _, _, bob = irb_topology
        ring = bob.refresh_keys()
        assert set(ring) == {"ucla-store", "memphis-store", "indie-store"}


class TestOwnershipBoundaries:
    def test_contributor_cannot_read_another_owners_data_raw(self, system):
        store = system.create_store("shared-store")
        alice = system.add_contributor("alice", store=store)
        carol = system.add_contributor("carol", store=store)
        alice.upload_segments([make_segment(contributor="alice", n=8)])
        alice.flush()
        # Carol queries Alice's data on the same store: she is not a
        # consumer the broker enrolled, so the store refuses to evaluate.
        with pytest.raises(AuthorizationError, match="enrolled"):
            carol.client.post(
                "https://shared-store/api/query",
                {"Contributor": "alice", "Query": DataQuery().to_json()},
            )

    def test_rules_are_per_owner_on_shared_stores(self, system):
        store = system.create_store("shared-store")
        alice = system.add_contributor("alice", store=store)
        carol = system.add_contributor("carol", store=store)
        alice.add_rule(Rule(consumers=("bob",), action=ALLOW))
        assert len(alice.rules()) == 1
        assert carol.rules() == []


class TestStoredContextNeverLeaves:
    """Context reaches a consumer only as rule-shaped ``ContextLabels``:
    the labels stored on a segment never ride out on the waveform."""

    @pytest.fixture()
    def conversation_withheld(self, system):
        from repro.rules.model import abstraction

        alice = system.add_contributor("alice")
        bob = system.add_consumer("bob")
        alice.upload_segments(
            [
                make_segment(
                    channels=("AccelX",),
                    n=8,
                    context={"Activity": "Still", "Conversation": "Conversation"},
                )
            ]
        )
        alice.flush()
        alice.add_rule(Rule(consumers=("bob",), action=ALLOW))
        alice.add_rule(
            Rule(contexts=("Conversation",), action=abstraction(Conversation="NotShare"))
        )
        bob.add_contributors(["alice"])
        return system, bob

    @pytest.mark.parametrize("path", ["direct", "via /api/data"])
    def test_no_stored_label_anywhere_in_the_response(self, conversation_withheld, path):
        from repro.net import wire

        system, bob = conversation_withheld
        request = {"Contributor": "alice", "Query": DataQuery().to_json()}
        if path == "direct":
            host, key = bob._store_client("alice")
            body = bob.client.with_key(key).post(f"https://{host}/api/query", request)
        else:
            body = bob.client.post("https://broker/api/data", request)
        sent = wire.encode(body)  # every byte that left: JSON head and sample part
        # The waveform and the label the rules do share arrive...
        (piece,) = released_pieces(body)
        assert piece["Segment"]["Format"] == ["AccelX"]
        assert piece["ContextLabels"] == {"Activity": "Still"}
        # ...the label they withhold is nowhere, under any key.
        assert b"Conversation" not in sent
        assert b'"Context":' not in sent

    def test_consumer_objects_carry_no_stored_context(self, conversation_withheld):
        _, bob = conversation_withheld
        for released in (bob.fetch("alice"), bob.fetch_via_broker("alice")):
            (piece,) = released
            assert piece.segment.context == {} and piece.segment.location is None
            assert piece.context_labels == {"Activity": "Still"}
