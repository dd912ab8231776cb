"""Tests for broker registries."""

import pytest

from repro.broker.registry import ContributorRegistry, StudyRegistry
from repro.exceptions import ConflictError, NotFoundError
from repro.rules.model import ALLOW, Rule
from repro.util.geo import BoundingBox, LabeledPlace


class TestContributorRegistry:
    def test_register_and_get(self):
        reg = ContributorRegistry()
        reg.register("alice", "alice-store", "UCLA")
        record = reg.get("alice")
        assert record.host == "alice-store"
        assert record.institution == "UCLA"
        assert "alice" in reg and len(reg) == 1

    def test_duplicate_conflict(self):
        reg = ContributorRegistry()
        reg.register("alice", "h")
        with pytest.raises(ConflictError):
            reg.register("alice", "h2")

    def test_unknown_404(self):
        reg = ContributorRegistry()
        with pytest.raises(NotFoundError):
            reg.get("ghost")

    def test_all_sorted(self):
        reg = ContributorRegistry()
        reg.register("zed", "h1")
        reg.register("amy", "h2")
        assert [r.name for r in reg.all()] == ["amy", "zed"]
        assert reg.names() == ["amy", "zed"]

    def test_update_profile_version_monotone(self):
        reg = ContributorRegistry()
        reg.register("alice", "h")
        rule = Rule(action=ALLOW)
        place = LabeledPlace("home", BoundingBox(0, 0, 1, 1))
        assert reg.update_profile("alice", version=2, rules=[rule], places=[place])
        record = reg.get("alice")
        assert record.rules_version == 2
        assert record.places["home"] == place
        # Stale update dropped.
        assert not reg.update_profile("alice", version=1, rules=[], places=[])
        assert reg.get("alice").rules_version == 2
        # Equal version is allowed (idempotent replay).
        assert reg.update_profile("alice", version=2, rules=[], places=[])

    def test_update_profile_never_moves_the_route(self):
        """A synced profile moves the rules mirror; only the directory moves a route."""
        reg = ContributorRegistry()
        reg.register("alice", "alice-store", "UCLA")
        assert reg.update_profile("alice", version=1, rules=[Rule(action=ALLOW)], places=[])
        record = reg.get("alice")
        assert (record.host, record.institution, record.rules_version) == ("alice-store", "UCLA", 1)
        with pytest.raises(TypeError):
            reg.update_profile("alice", version=2, rules=[], places=[], host="mallory-store")


class TestStudyRegistry:
    def test_create_and_membership(self):
        studies = StudyRegistry()
        studies.create("s1", coordinators=["bob"])
        studies.add_coordinator("s1", "carol")
        assert studies.coordinators_of("s1") == frozenset({"bob", "carol"})
        assert studies.studies() == ["s1"]

    def test_studies_of_consumer(self):
        studies = StudyRegistry()
        studies.create("s1", coordinators=["bob"])
        studies.create("s2", coordinators=["carol"])
        assert studies.studies_of_consumer("bob") == frozenset({"s1"})
        assert studies.studies_of_consumer("nobody") == frozenset()

    def test_duplicate_create_conflict(self):
        studies = StudyRegistry()
        studies.create("s1")
        with pytest.raises(ConflictError):
            studies.create("s1")

    def test_unknown_study_404(self):
        studies = StudyRegistry()
        with pytest.raises(NotFoundError):
            studies.add_coordinator("ghost", "bob")
