"""Tests for the Consumer handle's client-side behaviour."""

import pytest

from repro.broker.search import SearchCriteria
from repro.datastore.query import DataQuery
from repro.exceptions import AuthorizationError, NotFoundError
from repro.rules.model import ALLOW, Rule

from tests.conftest import make_segment


@pytest.fixture()
def wired(system):
    alice = system.add_contributor("alice")
    alice.upload_segments([make_segment(n=8)])
    alice.flush()
    alice.add_rule(Rule(consumers=("bob",), action=ALLOW))
    bob = system.add_consumer("bob")
    return system, alice, bob


class TestDiscovery:
    def test_list_populates_host_cache(self, wired):
        _, _, bob = wired
        bob.list_contributors()
        assert bob._hosts["alice"] == "alice-store"

    def test_search_populates_host_cache(self, wired):
        _, _, bob = wired
        names = bob.search(SearchCriteria(consumer="bob", channels=("ECG",)))
        assert names == ["alice"]
        assert bob._hosts["alice"] == "alice-store"

    def test_search_accepts_plain_json(self, wired):
        _, _, bob = wired
        assert bob.search({"Sensor": ["ECG"]}) == ["alice"]


class TestFetchPaths:
    def test_fetch_without_account_raises(self, wired):
        _, _, bob = wired
        with pytest.raises(AuthorizationError):
            bob.fetch("alice")

    def test_fetch_resolves_host_and_key_lazily(self, wired):
        """A fresh Consumer object (empty caches) still fetches after the
        broker has escrow for it."""
        system, _, bob = wired
        bob.add_contributors(["alice"])
        from repro.core.consumer import Consumer

        fresh = Consumer("bob", "broker", bob.client)
        released = fresh.fetch("alice", DataQuery())
        assert len(released) == 1

    def test_fetch_unknown_contributor(self, wired):
        _, _, bob = wired
        with pytest.raises((AuthorizationError, NotFoundError)):
            bob.fetch("ghost")

    def test_aggregate_without_account_raises(self, wired):
        from repro.datastore.aggregate import AggregateSpec

        _, _, bob = wired
        with pytest.raises(AuthorizationError):
            bob.fetch_aggregate("alice", AggregateSpec("mean", 60_000))


class TestStudies:
    def test_join_study_grants_study_scoped_access(self, wired):
        system, alice, bob = wired
        carol = system.add_consumer("carol")
        bob.create_study("team")
        carol.join_study("team")
        alice.add_rule(Rule(consumers=("team",), action=ALLOW))
        carol.add_contributors(["alice"])
        assert len(carol.fetch("alice")) == 1

    def test_membership_propagates_at_registration_time(self, wired):
        """Groups ride the role row the broker enrolls the consumer with,
        so the store resolves study-scoped rules identically."""
        system, alice, bob = wired
        bob.create_study("team")
        bob.add_contributors(["alice"])
        store = system.stores["alice-store"]
        assert store._membership("bob") == {"bob", "team"}
