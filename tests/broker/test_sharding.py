"""End-to-end sharded-fleet tests: placement, split, routing convergence.

Covers the edge cases the directory design promises: a stale client
route cache after a migration costs exactly one fenced retry; a dark
shard degrades pull-sync per shard instead of stalling it; search
fan-out merges deterministically.
"""

import pytest

from repro.broker.search import SearchCriteria
from repro.core import SensorSafeSystem
from repro.exceptions import StorageError
from repro.rules.model import ALLOW, Rule
from repro.storage import records
from tests.conftest import make_segment


def make_fleet(tmp_path, n_shards=2, contributors=("alice", "ben")):
    system = SensorSafeSystem(seed=7)
    shards = system.create_shard_fleet(
        n_shards, directory=str(tmp_path), durable=True
    )
    people = {}
    for i, name in enumerate(contributors):
        person = system.add_contributor(name, store=shards[i % n_shards])
        person.add_rule(Rule(consumers=("bob",), action=ALLOW))
        person.upload_segments([make_segment(contributor=name)])
        person.flush()
        people[name] = person
    return system, shards, people


class TestFleetPlacement:
    def test_contributors_are_placed_by_hashing_not_personal_stores(self, tmp_path):
        system = SensorSafeSystem(seed=7)
        system.create_shard_fleet(3, directory=str(tmp_path))
        before = set(system.stores)
        names = [f"user-{i}" for i in range(12)]
        for name in names:
            system.add_contributor(name)
        assert set(system.stores) == before  # no personal stores sprouted
        for name in names:
            record = system.broker.registry.get(name)
            assert record.host == system.broker.directory.ring.route(name)

    def test_durable_without_a_directory_is_refused_not_dropped(self):
        # create_store refuses durable=True with nowhere to put the log;
        # a fleet or a split must not quietly build non-durable shards.
        system = SensorSafeSystem(seed=7)
        with pytest.raises(StorageError):
            system.create_shard_fleet(1, durable=True)
        assert "shard-1" not in system.stores
        system.create_shard_fleet(1, prefix="plain")
        with pytest.raises(StorageError):
            system.split_shard("plain-1", "plain-2", durable=True)
        assert "plain-2" not in system.stores

    def test_without_a_fleet_personal_stores_still_work(self):
        system = SensorSafeSystem(seed=7)
        system.add_contributor("alice")
        assert system.broker.registry.get("alice").host == "alice-store"


class TestOnlineSplit:
    def test_split_moves_the_planned_range_and_keeps_serving(self, tmp_path):
        system = SensorSafeSystem(seed=7)
        shards = system.create_shard_fleet(1, directory=str(tmp_path), durable=True)
        names = [f"user-{i}" for i in range(10)]
        for name in names:
            person = system.add_contributor(name)
            person.add_rule(Rule(consumers=("bob",), action=ALLOW))
            person.upload_segments([make_segment(contributor=name)])
            person.flush()
        bob = system.add_consumer("bob")
        bob.add_contributors(names)
        epoch_before = system.broker.directory.routing_epoch

        report = system.split_shard(
            "shard-1", "shard-2", directory=str(tmp_path), durable=True
        )
        assert report["Planned"] == report["Moved"] > 0
        assert report["FailClosed"] == []
        assert system.broker.directory.routing_epoch > epoch_before
        moved = [
            n for n in names if system.broker.registry.get(n).host == "shard-2"
        ]
        assert len(moved) == report["Moved"]
        for name in moved:
            assert shards[0].roles[name] == records.ROLE_MOVED
        # Every contributor — moved or not — still serves their data.
        for name in names:
            assert len(bob.fetch(name)) == 1

    def test_migrated_contributor_rekeys_via_runbook(self, tmp_path):
        # "dora" ring-routes to shard-2 in a two-shard ring, so the split
        # definitely moves her (deterministic hash, not luck).
        system, shards, people = make_fleet(
            tmp_path, n_shards=1, contributors=("dora",)
        )
        system.split_shard("shard-1", "shard-2", directory=str(tmp_path), durable=True)
        assert system.broker.registry.get("dora").host == "shard-2"
        dora = system.repoint_contributor("dora")
        assert dora.store_host == "shard-2"
        dora.upload_segments(
            [make_segment(contributor="dora", start_ms=1_300_000_000_000)]
        )
        dora.flush()
        assert len(system.stores["shard-2"].store.segments_of("dora")) == 2


class TestRoutingConvergence:
    def _split_with_consumer(self, tmp_path):
        system = SensorSafeSystem(seed=7)
        system.create_shard_fleet(1, directory=str(tmp_path), durable=True)
        names = [f"user-{i}" for i in range(8)]
        for name in names:
            person = system.add_contributor(name)
            person.add_rule(Rule(consumers=("bob",), action=ALLOW))
            person.upload_segments([make_segment(contributor=name)])
            person.flush()
        bob = system.add_consumer("bob")
        bob.add_contributors(names)
        # Warm bob's route cache against the PRE-split topology.
        for name in names:
            assert len(bob.fetch(name)) == 1
        system.split_shard(
            "shard-1", "shard-2", directory=str(tmp_path), durable=True
        )
        moved = [
            n for n in names
            if system.broker.registry.get(n).host == "shard-2"
        ]
        return system, bob, moved

    def test_stale_route_cache_costs_one_fenced_retry_then_converges(self, tmp_path):
        system, bob, moved = self._split_with_consumer(tmp_path)
        assert moved, "split moved nobody; test needs a moved contributor"
        name = moved[0]
        assert bob._hosts[name] == "shard-1"  # stale: points at the source
        requests_before = system.network.metrics_of("shard-2").requests_in
        assert len(bob.fetch(name)) == 1  # fenced 409 -> re-resolve -> retry
        assert bob._hosts[name] == "shard-2"  # cache converged
        assert bob._route_epoch == system.broker.directory.routing_epoch
        assert system.network.metrics_of("shard-2").requests_in > requests_before
        # Converged: the next fetch goes straight to the new shard.
        fenced_before = system.network.metrics_of("shard-1").requests_in
        assert len(bob.fetch(name)) == 1
        assert system.network.metrics_of("shard-1").requests_in == fenced_before

    def test_route_cache_hit_and_miss_counters(self, tmp_path):
        system, _, people = make_fleet(tmp_path, contributors=("alice",))
        bob = system.add_consumer("bob")
        bob.add_contributors(["alice"])
        bob._hosts.clear()
        metrics = system.obs.metrics
        misses = metrics.counter("route_cache_misses_total")
        hits = metrics.counter("route_cache_hits_total")
        m0, h0 = misses.value, hits.value
        assert bob.resolve("alice") == "shard-1"
        assert (misses.value, hits.value) == (m0 + 1, h0)
        assert bob.resolve("alice") == "shard-1"
        assert (misses.value, hits.value) == (m0 + 1, h0 + 1)
        assert bob.resolve("nobody") is None


class TestShardedPullSync:
    def test_one_dark_shard_degrades_per_shard_not_globally(self, tmp_path):
        from repro.net.faults import FaultPlan

        system = SensorSafeSystem(seed=7, eager_sync=False)
        shards = system.create_shard_fleet(2, directory=str(tmp_path))
        for i, name in enumerate(("ann", "amy", "ben", "bea")):
            person = system.add_contributor(name, store=shards[i // 2])
            person.add_rule(Rule(consumers=("bob",), action=ALLOW))
        plan = FaultPlan()
        plan.add_drop("shard-2")
        system.install_faults(plan)

        applied = system.pull_sync()
        stats = system.broker.sync.stats
        assert applied == 2  # shard-1's contributors synced fine
        assert stats.host_failures == {"shard-2": 1}
        assert stats.pull_failures == 1
        assert stats.skipped_broken_host == 1  # bea skipped, not hammered
        assert sorted(system.broker.sync.stale_contributors()) == ["bea", "ben"]
        # Per-shard timing surfaced for both shards, including the dark one.
        assert set(stats.host_pull_ms) == {"shard-1", "shard-2"}

    def test_bulk_pull_applies_every_profile_on_the_shard(self, tmp_path):
        system = SensorSafeSystem(seed=7, eager_sync=False)
        shards = system.create_shard_fleet(1, directory=str(tmp_path))
        for name in ("ann", "ben", "cal"):
            system.add_contributor(name, store=shards[0]).add_rule(
                Rule(consumers=("bob",), action=ALLOW)
            )
        requests_before = system.network.metrics_of("shard-1").requests_in
        assert system.pull_sync() == 3
        # One bulk /api/profiles round trip, not one per contributor.
        assert system.network.metrics_of("shard-1").requests_in == requests_before + 1


class TestShardedSearch:
    def test_fanout_merges_deterministically_across_shards(self, tmp_path):
        system, shards, people = make_fleet(
            tmp_path, n_shards=2, contributors=("dora", "alice", "cleo", "ben")
        )
        bob = system.add_consumer("bob")
        criteria = SearchCriteria(consumer="bob", channels=("ECG",))
        assert bob.search(criteria) == ["alice", "ben", "cleo", "dora"]
        matches, shard_stats = system.broker.search.search_sharded(criteria)
        assert [m.name for m in matches] == ["alice", "ben", "cleo", "dora"]
        assert set(shard_stats) == {"shard-1", "shard-2"}
        for host_stats in shard_stats.values():
            assert host_stats["Errors"] == 0
            assert host_stats["Matched"] >= 1


class TestFleetSnapshotShards:
    def test_snapshot_reports_directory_and_migrations(self, tmp_path):
        system, shards, people = make_fleet(tmp_path, contributors=("alice",))
        snapshot = system.broker.fleet.scrape()
        section = snapshot["Shards"]
        assert section["Directory"]["Epoch"] == system.broker.directory.routing_epoch
        assert section["Directory"]["Shards"] == {"shard-1": 1, "shard-2": 0}
        assert section["ActiveMigrations"] == 0
        assert section["MigrationEvents"] == []
        system.broker.rebalancer.migrate(["alice"], "shard-2")
        events = system.broker.fleet.scrape()["Shards"]["MigrationEvents"]
        assert len(events) == 1
        assert events[0]["Source"] == "shard-1"
        assert events[0]["Dest"] == "shard-2"
        assert events[0]["Moved"] == 1
