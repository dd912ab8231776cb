"""Tests for the rule-sync manager."""

import pytest

from repro.broker.registry import ContributorRegistry
from repro.broker.sync import SyncManager
from repro.exceptions import SchemaError
from repro.rules.model import ALLOW, Rule
from repro.rules.parser import rules_to_json


def profile(name="alice", version=1, rules=None, host="alice-store"):
    return {
        "Contributor": name,
        "Host": host,
        "Version": version,
        "Rules": rules_to_json(rules or [Rule(action=ALLOW)]),
        "Places": [],
    }


@pytest.fixture()
def sync():
    reg = ContributorRegistry()
    reg.register("alice", "alice-store")
    return SyncManager(reg)


class TestApplyProfile:
    def test_apply_updates_registry(self, sync):
        assert sync.apply_profile(profile(version=3))
        record = sync.registry.get("alice")
        assert record.rules_version == 3
        assert len(record.rules) == 1
        assert sync.stats.pushes_received == 1
        assert sync.stats.applied == 1

    def test_stale_dropped_and_counted(self, sync):
        sync.apply_profile(profile(version=3))
        assert not sync.apply_profile(profile(version=2))
        assert sync.stats.stale_dropped == 1
        assert sync.registry.get("alice").rules_version == 3

    def test_pull_flag_counted_separately(self, sync):
        sync.apply_profile(profile(version=1), via_pull=True)
        assert sync.stats.pulls_performed == 1
        assert sync.stats.pushes_received == 0

    def test_malformed_profile_rejected(self, sync):
        with pytest.raises(SchemaError):
            sync.apply_profile({"Contributor": "alice"})

    def test_bad_rules_propagate(self, sync):
        bad = profile()
        bad["Rules"] = [{"Action": "Perhaps"}]
        with pytest.raises(Exception):
            sync.apply_profile(bad)


class TestPullOverNetwork:
    def test_pull_roundtrip(self, system):
        """End-to-end: broker pulls a profile from a live store."""
        alice = system.add_contributor("alice")
        alice.add_rule(Rule(consumers=("bob",), action=ALLOW))
        # Wipe the eagerly-synced state to prove the pull works by itself.
        record = system.broker.registry.get("alice")
        record.rules_version = 0
        record.rules = ()
        applied = system.broker.pull_profiles()
        assert applied == 1
        assert system.broker.registry.get("alice").rules_version == 1

    def test_a_profile_not_asked_for_is_ignored(self, sync):
        """A store answers for the names the broker asked it about, even
        under a forced pull: a profile for anyone else moves no mirror."""
        from repro.net.client import HttpClient
        from repro.net.http import Router
        from repro.net.transport import Network

        sync.registry.register("carol", "carol-store")
        network = Network()
        router = Router()
        router.add("POST", "/api/profiles", lambda request: {
            "Profiles": [profile(version=2), profile("carol", version=9, host="alice-store")],
            "Missing": ["carol"],
        })
        network.register_host("alice-store", router)
        out = sync.pull_host(HttpClient(network, "broker"), "alice-store", "k", ["alice"], force=True)
        assert out == {"pulled": 1, "applied": 1, "failed": 0}
        assert sync.registry.get("carol").rules_version == 0
        assert sync.stale_contributors() == []

    def test_pull_all_skips_unknown_hosts(self, sync):
        from repro.net.client import HttpClient
        from repro.net.transport import Network

        client = HttpClient(Network(), "broker")
        assert sync.pull_all(client, store_keys={}) == 0
        assert sync.stats.skipped_no_key == 1


class TestPullAllUnderFaults:
    def make_system(self):
        from repro.core import SensorSafeSystem
        from repro.rules.model import ALLOW, Rule

        system = SensorSafeSystem(seed=5, eager_sync=False)
        for name in ("ann", "ben", "cal"):
            system.add_contributor(name).add_rule(Rule(consumers=("bob",), action=ALLOW))
        return system

    def test_broken_store_skipped_not_fatal(self):
        from repro.net.faults import FaultPlan

        system = self.make_system()
        plan = FaultPlan()
        plan.add_drop("ben-store")
        system.install_faults(plan)
        applied = system.pull_sync()
        stats = system.broker.sync.stats
        assert applied == 2  # ann and cal synced despite ben's store being dark
        assert stats.pull_failures == 1
        assert stats.host_failures == {"ben-store": 1}
        assert system.broker.sync.stale_contributors() == ["ben"]

    def test_stale_contributor_recovers(self):
        from repro.net.faults import FaultPlan

        system = self.make_system()
        plan = FaultPlan()
        plan.add_outage("ben-store", start_ms=0, duration_ms=10_000)
        system.install_faults(plan)
        system.pull_sync()
        system.clock.advance(10_000)
        applied = system.pull_sync()
        stats = system.broker.sync.stats
        assert applied == 3
        assert stats.recovered == 1
        assert system.broker.sync.stale_contributors() == []

    def test_other_contributors_on_broken_host_skipped_once(self):
        from repro.net.faults import FaultPlan
        from repro.rules.model import ALLOW, Rule

        system = self.make_system()
        lab = system.stores["ann-store"]
        system.add_contributor("amy", store=lab).add_rule(
            Rule(consumers=("bob",), action=ALLOW)
        )
        plan = FaultPlan()
        plan.add_drop("ann-store")
        system.install_faults(plan)
        system.pull_sync()
        stats = system.broker.sync.stats
        # One failed pull marks the host broken; the host's other
        # contributor is skipped, not hammered.
        assert stats.pull_failures == 1
        assert stats.skipped_broken_host == 1
        assert sorted(system.broker.sync.stale_contributors()) == ["amy", "ann"]


def profile_pulls(system, host):
    """``(bulk, single)`` profile requests ``host`` has answered so far."""
    count = system.obs.metrics.sum_counter
    return (
        count("net_route_requests_total", host=host, route="/api/profiles"),
        count("net_route_requests_total", host=host, route="/api/profile"),
    )


class TestOnePullPerHost:
    """Reconcile, promotion and a split's cutover converge the mirror with
    one bulk ``/api/profiles`` request per host, not one per contributor."""

    def test_reconcile_store_sends_one_bulk_request(self):
        from repro.core import SensorSafeSystem

        system = SensorSafeSystem(seed=5)
        lab = system.create_store("lab-store")
        for name in ("ann", "ben", "cal"):
            system.add_contributor(name, store=lab).add_rule(Rule(consumers=("bob",), action=ALLOW))
        before = profile_pulls(system, "lab-store")
        out = system.reconcile(lab)
        after = profile_pulls(system, "lab-store")
        assert (after[0] - before[0], after[1] - before[1]) == (1, 0)
        assert out == {"pulled": 3, "applied": 3, "failed": 0}

    def test_promotion_sends_one_bulk_request(self, tmp_path):
        from repro.core import SensorSafeSystem

        system = SensorSafeSystem(seed=7)
        primary = system.create_replicated_store(
            "lab-store", directory=str(tmp_path), n_replicas=1
        )
        for name in ("ann", "ben", "cal"):
            system.add_contributor(name, store=primary).add_rule(Rule(consumers=("bob",), action=ALLOW))
        system.network.unregister_host("lab-store")
        before = profile_pulls(system, "lab-store-r1")
        for _ in range(system.broker.failover.miss_threshold):
            report = system.broker.failover.heartbeat()
        assert report["lab-store"]["FailedOver"]["Promoted"] == "lab-store-r1"
        after = profile_pulls(system, "lab-store-r1")
        assert (after[0] - before[0], after[1] - before[1]) == (1, 0)
        assert system.broker.sync.stale_contributors() == []

    def test_split_cutover_sends_one_bulk_request(self, tmp_path):
        from repro.core import SensorSafeSystem

        system = SensorSafeSystem(seed=7)
        system.create_shard_fleet(1, directory=str(tmp_path), durable=True)
        for i in range(10):
            system.add_contributor(f"user-{i}").add_rule(Rule(consumers=("bob",), action=ALLOW))
        report = system.split_shard("shard-1", "shard-2", directory=str(tmp_path), durable=True)
        assert report["Moved"] >= 2
        assert profile_pulls(system, "shard-2") == (1, 0)
        assert system.broker.sync.stale_contributors() == []
