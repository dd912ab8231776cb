"""Referee: every store that serves a consumer agrees with the broker on
its groups, whatever happened in between.

The broker's ``StudyRegistry`` is the truth about who belongs to which
group; a store knows it only from the consumer's ``role`` record.  A
seeded sweep interleaves what can separate the two — adding contributors,
joining a study (also with one of the consumer's stores unreachable, then
retried), a durable restart followed by ``reconcile_store``, a replica
promotion and the ex-primary's return, a shard split's cutover and the
move back — and at every quiescent point checks, for every consumer,
each store it holds a key for that still serves a contributor (and that
store's replica):

* the store's ``_membership`` equals ``broker._membership``;
* ``[Allow everyone; Deny insurers]`` releases nothing to an insurer and
  the one stored piece to anyone else;
* every other store in its key ring never answers it a 200 for a
  contributor, and a store the contributor once lived on answers 409 —
  the fence a restart, a promotion or a move back must not lose or keep.
"""

import random

import pytest

from repro.core import SensorSafeSystem
from repro.exceptions import ServiceError
from repro.net.faults import FaultPlan
from repro.rules.model import ALLOW, DENY, Rule
from repro.server.datastore_service import DataStoreService

from tests.conftest import make_segment

INSURERS_DENIED = [Rule(action=ALLOW), Rule(consumers=("insurers",), action=DENY)]
CONTRIBUTORS = ("alice", "c0", "c1", "c2", "c5")  # c5 moves in the split
CONSUMERS = ("bob", "carol", "dave")
STEPS = ("add", "add", "join", "join_cut", "restart", "promote", "migrate", "move_back")


class Fleet:
    """A replicated store for alice plus a two-shard fleet for the rest."""

    def __init__(self, tmp_path, seed):
        self.tmp = tmp_path
        self.rng = random.Random(f"membership-agreement:{seed}")
        self.system = system = SensorSafeSystem(seed=seed)
        clinic = system.create_replicated_store(
            "clinic", directory=str(tmp_path / "clinic"), n_replicas=1
        )
        system.create_shard_fleet(2, directory=str(tmp_path / "fleet"), durable=True)
        for name in CONTRIBUTORS:
            owner = system.add_contributor(name, store=clinic if name == "alice" else None)
            owner.upload_segments([make_segment(contributor=name, n=8)])
            owner.flush()
            for rule in INSURERS_DENIED:
                owner.add_rule(rule)
        system.add_consumer("ins-admin").create_study("insurers")
        self.consumers = {name: system.add_consumer(name) for name in CONSUMERS}
        self.added = {name: set() for name in CONSUMERS}
        self.shards = ["shard-1", "shard-2"]
        #: contributor -> every host it has lived on
        self.homes = {name: {self.routed_to(name)} for name in CONTRIBUTORS}
        self.promoted = self.migrated = self.moved_back = False
        self.split_range = []
        self.source_fenced_and_tested = False  # restarted after the cutover, or moved back
        self.cuts_past_first = 0  # cut joins that had stores after the cut one
        self.log = []

    def step(self):
        kind = self.rng.choice(STEPS)
        name = self.rng.choice(CONSUMERS)
        if kind == "add":
            names = self.rng.sample(CONTRIBUTORS, self.rng.randint(1, 3))
            self.consumers[name].add_contributors(names)
            self.added[name].update(names)
        elif kind == "join":
            self.consumers[name].join_study("insurers")
        elif kind == "join_cut" and self.routed_hosts(name):
            self.join_with_a_store_cut(name)
        elif kind == "restart":
            # After the promotion the dead ex-primary may come back too.
            name = self.rng.choice(self.shards + ["clinic"] * self.promoted)
            self.restart(name)
            self.source_fenced_and_tested |= name == "shard-1" and bool(self.split_range)
        elif kind == "promote" and not self.promoted:
            self.system.network.unregister_host("clinic")
            for _ in range(self.system.broker.failover.miss_threshold):
                self.system.broker.failover.heartbeat()
            assert self.system.broker.registry.get("alice").host == "clinic-r1"
            self.promoted, name = True, None
        elif kind == "migrate" and not self.migrated:
            report = self.system.split_shard(
                "shard-1", "shard-3", directory=str(self.tmp / "fleet"), durable=True
            )
            self.split_range = [n for n in CONTRIBUTORS if self.routed_to(n) == "shard-3"]
            assert len(self.split_range) == report["Moved"]
            self.shards.append("shard-3")
            self.migrated, name = True, None
        elif kind == "move_back" and self.migrated and not self.moved_back:
            self.system.broker.rebalancer.migrate(self.split_range, "shard-1")
            self.source_fenced_and_tested |= bool(self.split_range)
            self.moved_back, name = True, None
        else:
            return
        self.log.append(kind if name is None else f"{kind}:{name}")

    def routed_to(self, contributor):
        return self.system.broker.registry.get(contributor).host

    def replicas_of(self, host):
        sets = self.system.broker.failover.sets.values()
        return [replica for group in sets if group.primary == host for replica in group.replicas]

    def routed_hosts(self, name):
        """The stores ``name`` holds a key at that serve a contributor."""
        broker = self.system.broker
        routed = {record.host for record in broker.registry.all()}
        return sorted(set(broker.escrow.ring_of(name)) & routed)

    def join_with_a_store_cut(self, name):
        """The first of the consumer's stores cannot be reached: the join
        fails having enrolled every other one, and succeeds once retried."""
        system, hosts = self.system, self.routed_hosts(name)
        plan = FaultPlan()
        plan.add_drop(hosts[0], path="/api/enroll")
        system.install_faults(plan)
        with pytest.raises(ServiceError):
            self.consumers[name].join_study("insurers")
        system.install_faults(None)
        joined = system.broker._membership(name) | {"insurers"}
        for host in hosts[1:]:
            assert system.stores[host]._membership(name) == joined, (self.log, host)
        self.cuts_past_first += len(hosts) > 1
        system.clock.advance(60_000)  # the broker's breaker half-opens
        self.consumers[name].join_study("insurers")

    def restart(self, host):
        system = self.system
        store = system.stores[host]
        store.durability.close()
        system.network.unregister_host(host)
        fresh = DataStoreService(
            host, system.network, directory=store.directory, durable=True, seed=system.seed
        )
        system.stores[host] = fresh
        assert system.reconcile(fresh)["failed"] == 0

    def check(self):
        broker, stores = self.system.broker, self.system.stores
        routed = {record.host for record in broker.registry.all()}
        for contributor in CONTRIBUTORS:
            self.homes[contributor].add(self.routed_to(contributor))
        for name, consumer in self.consumers.items():
            truth = broker._membership(name)
            for host in broker.escrow.ring_of(name):
                if host not in routed:
                    continue
                for peer in [host] + self.replicas_of(host):
                    assert stores[peer]._membership(name) == truth, (self.log, peer, name)
            self.check_no_other_store_serves(name)
            consumer.refresh_keys()
            want = 0 if "insurers" in truth else 1
            for contributor in sorted(self.added[name]):
                consumer.resolve(contributor, force=True)
                got = len(consumer.fetch(contributor))
                assert got == want, (self.log, name, contributor, got)

    def check_no_other_store_serves(self, name):
        """Only a contributor's routed host answers a read of her: a store
        she left answers 409, one she never lived on 409 or 404."""
        network, escrow = self.system.network, self.system.broker.escrow
        for host, key in escrow.ring_of(name).items():
            if host not in network.hosts():
                continue  # the dead ex-primary
            for contributor in CONTRIBUTORS:
                routed = self.routed_to(contributor)
                if host in [routed] + self.replicas_of(routed):
                    continue
                body = {"Contributor": contributor, "ApiKey": key}
                status = network.request("POST", f"https://{host}/api/query", body).status
                expected = (409,) if host in self.homes[contributor] else (404, 409)
                assert status in expected, (self.log, name, host, contributor, status)


SEEDS = range(20)
STEPS_PER_SCHEDULE = 12


@pytest.mark.parametrize("seed", SEEDS)
def test_stores_agree_with_the_broker_at_every_quiescent_point(tmp_path, seed):
    fleet = Fleet(tmp_path, seed)
    for _ in range(STEPS_PER_SCHEDULE):
        fleet.step()
        fleet.check()


def test_the_sweep_covers_every_step_kind_and_a_late_join(tmp_path):
    kinds, late_joins, cuts_past_first, fenced_sources = set(), 0, 0, 0
    for seed in SEEDS:
        fleet = Fleet(tmp_path / str(seed), seed)
        for _ in range(STEPS_PER_SCHEDULE):
            fleet.step()
        kinds.update(entry.split(":")[0] for entry in fleet.log)
        late_joins += any(
            entry.startswith("join:") and f"add:{entry[5:]}" in fleet.log[:i]
            for i, entry in enumerate(fleet.log)
        )
        cuts_past_first += fleet.cuts_past_first
        fenced_sources += fleet.source_fenced_and_tested
    assert kinds == set(STEPS)
    assert late_joins >= 3
    assert cuts_past_first >= 3
    assert fenced_sources >= 3
