"""Tests for the consistent-hash ring and the versioned shard directory."""

import ast
from pathlib import Path

import pytest

from repro.broker.directory import DEFAULT_VNODES, HashRing, ShardDirectory
from repro.broker.registry import ContributorRegistry
from repro.exceptions import ConflictError, NotFoundError


class TestHashRing:
    def test_routing_is_deterministic(self):
        a, b = HashRing(), HashRing()
        for ring in (a, b):
            for host in ("shard-1", "shard-2", "shard-3"):
                ring.add(host)
        names = [f"user-{i}" for i in range(200)]
        assert [a.route(n) for n in names] == [b.route(n) for n in names]

    def test_empty_ring_raises(self):
        with pytest.raises(NotFoundError):
            HashRing().route("alice")

    def test_duplicate_add_and_missing_remove(self):
        ring = HashRing()
        ring.add("shard-1")
        with pytest.raises(ConflictError):
            ring.add("shard-1")
        with pytest.raises(NotFoundError):
            ring.remove("shard-2")
        ring.remove("shard-1")
        assert len(ring) == 0

    def test_placement_is_reasonably_balanced(self):
        ring = HashRing(DEFAULT_VNODES)
        hosts = [f"shard-{i}" for i in range(1, 9)]
        for host in hosts:
            ring.add(host)
        counts = {h: 0 for h in hosts}
        for i in range(8000):
            counts[ring.route(f"user-{i}")] += 1
        mean = 8000 / len(hosts)
        for host, count in counts.items():
            assert 0.5 * mean < count < 1.7 * mean, (host, count)

    def test_adding_a_shard_moves_only_a_fraction(self):
        before = HashRing()
        after = HashRing()
        for host in ("shard-1", "shard-2", "shard-3", "shard-4"):
            before.add(host)
            after.add(host)
        after.add("shard-5")
        names = [f"user-{i}" for i in range(2000)]
        moved = sum(1 for n in names if before.route(n) != after.route(n))
        # Consistent hashing: ~1/5 of keys move to the new shard; nothing
        # reshuffles between the surviving shards.
        assert moved < 2000 * 0.35
        for name in names:
            if before.route(name) != after.route(name):
                assert after.route(name) == "shard-5"


class TestShardDirectory:
    def _directory(self, contributors=(), host="shard-1"):
        registry = ContributorRegistry()
        for name in contributors:
            registry.register(name, host)
        return ShardDirectory(registry)

    def test_epoch_bumps_on_topology_change(self):
        directory = self._directory()
        start = directory.routing_epoch
        directory.add_shard("shard-1")
        assert directory.routing_epoch == start + 1
        directory.add_shard("shard-2")
        directory.remove_shard("shard-2")
        assert directory.routing_epoch == start + 3

    def test_place_none_without_fleet(self):
        directory = self._directory()
        assert directory.place("alice") is None
        directory.add_shard("shard-1")
        assert directory.place("alice") == "shard-1"

    def test_route_is_registry_authoritative(self):
        directory = self._directory(["alice"])
        directory.add_shard("shard-9")  # ring placement is irrelevant here
        host, epoch = directory.route("alice")
        assert host == "shard-1"
        assert epoch == directory.routing_epoch
        with pytest.raises(NotFoundError):
            directory.route("nobody")

    def test_move_bumps_epoch_once_for_the_batch(self):
        directory = self._directory(["a1", "a2", "a3"])
        before = directory.routing_epoch
        moved = directory.move(["a1", "a2"], "shard-2")
        assert moved == 2
        assert directory.routing_epoch == before + 1
        assert directory.registry.get("a1").host == "shard-2"
        assert directory.registry.get("a3").host == "shard-1"
        # Re-moving to the same host changes nothing and bumps nothing.
        assert directory.move(["a1"], "shard-2") == 0
        assert directory.routing_epoch == before + 1

    def test_repoint_bumps_epoch(self):
        directory = self._directory(["a1", "a2"])
        before = directory.routing_epoch
        assert directory.repoint("shard-1", "shard-1-r1") == 2
        assert directory.routing_epoch == before + 1

    def test_plan_split_selects_exactly_the_moving_range(self):
        registry = ContributorRegistry()
        names = [f"user-{i}" for i in range(120)]
        for name in names:
            registry.register(name, "shard-1")
        directory = ShardDirectory(registry)
        directory.add_shard("shard-1")
        directory.add_shard("shard-2")
        plan = directory.plan_split("shard-1", "shard-2")
        assert plan  # a 2-way split moves a nonempty range
        assert set(plan) == {
            n for n in names if directory.ring.route(n) == "shard-2"
        }
        # Nothing outside the source host is ever planned.
        registry.register("elsewhere", "shard-9")
        assert "elsewhere" not in directory.plan_split("shard-1", "shard-2")

    def test_status_counts_per_shard(self):
        directory = self._directory(["a1", "a2"])
        directory.add_shard("shard-1")
        status = directory.status()
        assert status["Shards"] == {"shard-1": 2}
        assert status["OffRing"] == 0
        assert status["Contributors"] == 2
        directory.move(["a1"], "off-ring-host")
        assert directory.status()["OffRing"] == 1


# -- one route writer -----------------------------------------------------
#
# Tier-1 guard in the style of ``tests/integration/test_one_installer.py``:
# after ``ContributorRegistry.register``, only the directory assigns a
# contributor record's ``host``, so no route change can miss the epoch.  A
# rule-sync push once re-homed a contributor to whichever paired store
# pushed her profile, with the epoch unmoved.

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
ROUTE_WRITER = "broker/directory.py"


def _host_assignments(tree):
    """Line numbers of ``x.host = ...`` where ``x`` is not ``self``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in target.elts if isinstance(target, ast.Tuple) else [target]:
                    if (
                        isinstance(leaf, ast.Attribute)
                        and leaf.attr == "host"
                        and getattr(leaf.value, "id", "") != "self"
                    ):
                        yield leaf.lineno


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text(encoding="utf-8"))


def test_only_the_directory_moves_a_route():
    offenders = [
        f"{name}:{lineno}"
        for name, tree in _modules()
        if name != ROUTE_WRITER
        for lineno in _host_assignments(tree)
    ]
    assert offenders == [], "move a route through ShardDirectory: " + "; ".join(offenders)


def test_the_route_guard_sees_what_it_guards():
    """The walk is not vacuous: the directory itself trips it, once."""
    assert len(list(_host_assignments(dict(_modules())[ROUTE_WRITER]))) == 1
