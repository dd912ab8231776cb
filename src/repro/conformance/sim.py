"""Seeded whole-fleet simulation: one replicated shard, invariants after every step.

:func:`generate` draws a schedule from a seed: uploads with their flush,
queries, registrations, rule adds and revocations, enrollments, kills,
restarts, armed storage crash points, network faults (a partition that may
cut a consumer's side differently from the broker's, lost
``/api/replicate/append`` acks), heals and broker ticks.  :func:`run_schedule`
drives one durable primary and two replicas (``SimClock``, ``enforce``
admission) through it, checking ROADMAP item 2's invariants after every step:
1, every release answered passes :func:`check_release` against the serving
store's rules, places and memberships, at a rules version no lower than the
broker mirror's or the owner's last acknowledged one; 2, no two members
answer a 2xx read or write at the same epoch; 4, after a promotion every
acknowledged flush's samples and registration are at the directory's
primary; 8, at a quiescent point each replica holds its primary's records,
up to DESIGN.md's two exceptions (a fail-closed deny above the primary's
version, audit records a rejoiner's resync merged in).
A failing schedule is shrunk by :func:`repro.conformance.runner.shrink`.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
import tempfile
import traceback
from collections import Counter
from itertools import repeat

from repro.auth.accounts import ROLE_CONTRIBUTOR
from repro.conformance.generators import Trial, TrialGenerator
from repro.conformance.runner import served_violations, shrink
from repro.core.contributor import Contributor
from repro.core.system import SensorSafeSystem
from repro.datastore.wavesegment import TIME_CHANNEL, WaveSegment
from repro.exceptions import AuthenticationError, NotPrimaryError, SensorSafeError, TransportError
from repro.net.client import HttpClient
from repro.net.faults import RESPONSE_ERROR, FaultPlan
from repro.rules.parser import rule_to_json
from repro.server.datastore_service import PRIMARY_PRINCIPAL, DataStoreService
from repro.storage import CRASH_POINTS, StorageFaultPlan, records
from repro.util.jsonutil import canonical_dumps

SCHEDULES, STEPS, SET, PASSWORD = 200, 24, "s", "pw"
CONTRIBUTORS, CONSUMERS = ("alice", "dave", "frank"), ("bob", "eve")
#: The crash points a replica's resync passes: it journals nothing, so its
#: checkpoint's (commit fsync, snapshot files, manifest, WAL reset) only.
RESYNC_POINTS = tuple(p for p in CRASH_POINTS if not p.startswith("wal.append"))
#: What a sweep must hit: every crash point on a primary that then failed
#: over, every point of a replica's resync, and three compositions.
COVERAGE = ([f"primary:{p}" for p in CRASH_POINTS] + [f"resync:{p}" for p in RESYNC_POINTS]
            + ["partition healed mid-ship", "lost append acks", "crashed mid-promotion"])
CUTS = ("ship", "one", "broker", "consumer", "isolate", None)
#: Routes whose 2xx answer is a read or a write (invariant 2).
SERVES = {m.route.path for m in vars(DataStoreService).values()
          if getattr(m, "route", None) and m.route.writes} | {"/api/register"}
WEIGHTS = {"upload": 4, "query": 3, "register": 1, "rule": 2, "revoke": 1, "enroll": 1,
           "kill": 1, "restart": 1, "crash": 2, "fault": 1, "heal": 1, "tick": 4}
#: ``kind: (rate, draw)``: after a step of that kind, ``draw(rng)`` is the
#: next step at that rate.  Independent draws almost never string together
#: a ship cut, a rules write no replica acks, a crash armed on the election's
#: candidate, the primary's death before it ships a registration, and the
#: broker's ticks.
FOLLOW = {
    "fault": (0.7, lambda rng: ["revoke", "alice"]),
    "register": (0.5, lambda rng: ["kill", "primary", 0]),
    "revoke": (0.5, lambda rng: ["crash", "replica", 0, rng.choice(CRASH_POINTS[:4])]),
    "crash": (0.6, lambda rng: ["kill", "primary", 0]),
    "kill": (0.8, lambda rng: ["tick"]),
    "tick": (0.5, lambda rng: ["tick"]),
}


def _held(service) -> list:
    """``records.dump`` of ``service`` as sorted canonical JSON, minus the
    ``__primary__`` pairing row (a replica's own, never journaled; a
    promoted store keeps the one from its replica days)."""
    return sorted(
        canonical_dumps([op, data])
        for op, data in records.dump(service)
        if not (op == records.OP_ROLE and data["Principal"] == PRIMARY_PRINCIPAL)
    )


def assert_replica_matches(primary, replica) -> None:
    """Invariant 8: a replica holds exactly its primary's records (:func:`_held`)."""
    ours, theirs = _held(primary), _held(replica)
    assert ours == theirs, (
        f"{replica.host} differs from {primary.host}: "
        f"only at the primary {sorted(set(ours) - set(theirs))}, "
        f"only at the replica {sorted(set(theirs) - set(ours))}"
    )


def generate(seed: int, index: int) -> list:
    """Schedule ``index`` of ``seed``: :data:`STEPS` ``[kind, *args]`` lists."""
    rng = random.Random(f"sim/{seed}/{index}")
    draw = {
        "upload": lambda: [rng.choice(CONTRIBUTORS[:1] + CONTRIBUTORS), rng.randrange(1 << 30)],
        "query": lambda: [rng.choice(CONSUMERS), rng.choice(CONTRIBUTORS[:1] + CONTRIBUTORS)],
        "register": lambda: [rng.choice(CONTRIBUTORS[1:])],
        "rule": lambda: [rng.choice(CONTRIBUTORS), rng.randrange(1 << 30)],
        "revoke": lambda: [rng.choice(CONTRIBUTORS)],
        "enroll": lambda: [rng.choice(CONSUMERS), rng.choice(CONTRIBUTORS)],
        "kill": lambda: [rng.choice(("primary", "replica")), rng.randrange(2)],
        "restart": lambda: [rng.choice(("primary", "replica", "dead")), rng.randrange(2)],
        "crash": lambda: rng.choice((["primary", 0, rng.choice(CRASH_POINTS)],
                                     ["replica", rng.randrange(2), rng.choice(RESYNC_POINTS)])),
        "fault": lambda: [rng.choices(CUTS, weights=(3, 1, 1, 1, 1, 1))[0], rng.randrange(2)],
        "heal": list, "tick": list,
    }
    schedule = []
    while len(schedule) < STEPS:
        rate, follow = FOLLOW.get(schedule[-1][0] if schedule else "", (0, None))
        if rng.random() < rate:
            schedule.append(follow(rng))
        else:
            kind = rng.choices(list(WEIGHTS), weights=list(WEIGHTS.values()))[0]
            schedule.append([kind, *draw[kind]()])
    return schedule


def _samples(segments) -> set:
    """``(channel, t, value)`` of every sample of ``segments``."""
    return {sample for segment in segments for j, channel in enumerate(segment.channels)
            if channel != TIME_CHANNEL for sample in zip(
                repeat(channel), segment.sample_times().tolist(), segment.values[:, j].tolist())}


def _ok(call, *args) -> bool:
    """Whether ``call(*args)`` was answered: the system may refuse anything."""
    try:
        call(*args)
        return True
    except SensorSafeError:
        return False


class _Crash(StorageFaultPlan):
    """One armed crash point.  Where it fires its process dies: the host
    leaves the network before the error unwinds."""

    def __init__(self, sim, host: str, point: str):
        super().__init__()
        (self.add_torn_write if point.endswith(".write") else self.add_crash)(point)
        self.sim, self.host, self.point = sim, host, point

    def _record(self, point, path, kind, outcome) -> None:
        super()._record(point, path, kind, outcome)
        if outcome != "pass":  # recorded just before the crash is raised
            self.sim.crashed(self)


class _Sim:
    """One schedule's world, its step handlers and its referees."""

    def __init__(self, directory: str):
        self.system = system = SensorSafeSystem(seed=0, overload="enforce")
        self.network = system.network
        system.create_replicated_store(SET, directory=directory, n_replicas=2)
        self.group = system.broker.failover.sets[SET]
        system.add_contributor("alice", store=system.stores[SET], password=PASSWORD)
        for name in CONSUMERS:
            system.add_consumer(name)
        system.consumers["bob"].add_contributors(["alice"])
        self.violations, self.coverage, self.registered = [], set(), {"alice"}
        self.acked_samples = {name: set() for name in CONTRIBUTORS}
        self.acked_rules = dict.fromkeys(CONTRIBUTORS, 0)
        self.answered: dict = {}  # epoch -> hosts that answered a 2xx read or write
        self.pending: list = []  # invariant-1 findings of releases not yet answered
        self.serving: list = []  # (host, path) of the requests in flight
        self.armed: dict = {}  # host -> _Crash not fired yet
        self.crashed_primaries: dict = {}  # host -> the point it died at
        self.reap: list = []  # crashed services whose journal to close
        self.unreconciled: set = set()
        self.fault = self.resyncing = None
        for service in system.stores.values():
            self.watch(service)
        system.broker.failover.heartbeat()  # setup's records ship

    def watch(self, service) -> None:
        """Guard ``service``'s releases and tap its answers."""
        service.release_guards.append(
            lambda event: self.pending.extend(self.release_findings(service, event)))
        dispatch = service.router.dispatch

        def tapped(request):
            mark = len(self.pending)
            self.serving.append((service.host, request.path))
            try:
                response = dispatch(request)
            finally:
                self.serving.pop()
            findings, self.pending[mark:] = self.pending[mark:], []
            if 200 <= response.status < 300:
                self.violations += findings
                if request.path in SERVES:
                    self.answered.setdefault(service.epoch, set()).add(service.host)
            return response

        service.router.dispatch = tapped

    def release_findings(self, service, event) -> list:
        """Invariant 1 on one release, as its guard sees it."""
        who, owner = event.consumer, event.contributor
        rules = [] if owner in service.fail_closed else service.rules.rules_of(owner)
        trial = Trial("sim", rules, consumer=who, places=dict(service.places.get(owner, {})),
                      memberships={who: service.memberships.get(who, frozenset())})
        floor = max(self.system.broker.registry.get(owner).rules_version, self.acked_rules[owner])
        released = [piece.to_json() for piece in event.released]
        out = [(1, f"{service.host}: {v.invariant}: {v.detail}")
               for v in served_violations(trial, event.segments, released)]
        if event.rules_version < floor:
            out.append((1, f"{service.host} released {owner} under rules {event.rules_version}"
                           f" < {floor}"))
        return out

    def check(self, promoted: bool) -> None:
        """Invariants 2 and (after a promotion) 4, once a step has run."""
        self.violations += [(2, f"{sorted(hosts)} all answered at epoch {epoch}")
                            for epoch, hosts in sorted(self.answered.items()) if len(hosts) > 1]
        for name in sorted(self.registered) if promoted else ():
            host = self.system.broker.registry.get(name).host
            service = self.system.stores[host]
            if self.live(host) and not _ok(service.check_password, name, PASSWORD):
                self.violations.append((4, f"{name}'s acknowledged registration is not at {host}"))
            lost = self.acked_samples[name] - _samples(service.store.segments_of(name))
            if self.live(host) and lost:
                self.violations.append((4, f"{len(lost)} acknowledged samples of {name} "
                                           f"missing at {host}"))

    def quiescent_match(self) -> None:
        """Invariant 8, when every member is live and serving, nothing is
        installed or armed, and a heartbeat has just run."""
        primary = self.system.stores[self.group.primary]
        if (self.fault or self.armed or self.unreconciled or not primary.is_primary
                or not all(map(self.live, self.group.members()))):
            return
        for replica in map(self.system.stores.get, self.group.replicas):
            if any(replica.rules.version_of(name) > primary.rules.version_of(name)
                   for name in replica.fail_closed):
                continue  # a deny above the primary's version stands for its owner (DESIGN.md)
            try:
                assert_replica_matches(primary, replica)
            except AssertionError as exc:
                ours, theirs = set(_held(primary)), set(_held(replica))
                # A resync merges audit trails, so a rejoiner keeps the reads
                # only it recorded (DESIGN.md: invariant 8 holds up to them).
                if not (theirs - ours and all(r.startswith('["audit"') for r in ours ^ theirs)):
                    self.violations.append((8, str(exc)[:400]))

    def live(self, host: str) -> bool:
        return host in self.network.hosts()

    def pick(self, of: str, index: int):
        hosts = {"primary": [self.group.primary], "replica": sorted(self.group.replicas),
                 "dead": sorted(set(self.system.stores) - set(self.network.hosts()))}[of]
        return hosts[index % len(hosts)] if hosts else None

    def kill(self, host: str) -> None:
        service = self.system.stores[host]
        self.network.unregister_host(host)
        if self.armed.pop(host, None):
            service.durability.faults = service.durability.wal.faults = None
        service.durability.close()

    def crashed(self, plan: _Crash) -> None:
        """``plan`` fired: its host is gone; note what it was doing."""
        self.network.unregister_host(plan.host)
        self.armed.pop(plan.host, None)
        self.reap.append(self.system.stores[plan.host])
        if plan.host == self.group.primary:
            self.crashed_primaries[plan.host] = plan.point
        if self.resyncing == plan.host:
            self.coverage.add(f"resync:{plan.point}")
        if (plan.host, "/api/promote") in self.serving:
            self.coverage.add("crashed mid-promotion")

    def as_owner(self, name: str, call) -> bool:
        """Whether ``call(owner)`` was answered, once more after the owner's
        runbook step on a refusal a failover or restart explains: re-key with
        the password at the directory's host."""
        owner = self.system.contributors.get(name)
        if owner is None:
            return False
        try:
            call(owner)
        except (AuthenticationError, NotPrimaryError, TransportError):
            return _ok(self.system.repoint_contributor, name, PASSWORD) and _ok(call, owner)
        except SensorSafeError:
            return False
        return True

    def step_upload(self, name: str, seed: int) -> None:
        drawn = TrialGenerator(seed).gen_segment(random.Random(seed))
        segment = WaveSegment(name, drawn.channels, drawn.start_ms, drawn.interval_ms,
                              drawn.values, drawn.location, drawn.context)
        if self.as_owner(name, lambda owner: owner.upload_segments([segment]) + owner.flush()):
            self.acked_samples[name] |= _samples([segment])

    def step_query(self, consumer: str, name: str) -> None:
        _ok(self.system.consumers[consumer].fetch, name)

    def step_register(self, name: str) -> None:
        host, answer = self.group.primary, {}
        client = HttpClient(self.network, name=f"{name}-phone", retry=self.system.retry)
        body = {"Username": name, "Role": ROLE_CONTRIBUTOR, "Password": PASSWORD}
        if name in self.registered or not _ok(
                lambda: answer.update(client.post(f"https://{host}/api/register", body))):
            return
        self.system.broker.register_contributor(name, host)
        self.system.contributors[name] = Contributor(name, host, client.with_key(answer["ApiKey"]))
        self.registered.add(name)

    def _rules(self, name: str, path: str, body: dict) -> None:
        def call(owner):
            answer = owner.client.post(owner._url(path), {"Contributor": name, **body})
            self.acked_rules[name] = max(self.acked_rules[name], int(answer["Version"]))

        self.as_owner(name, call)

    def step_rule(self, name: str, seed: int) -> None:
        rule = TrialGenerator(seed).gen_rule(random.Random(seed), {})
        self._rules(name, "/api/rules/add", {"Rule": rule_to_json(rule)})

    def step_revoke(self, name: str) -> None:
        self._rules(name, "/api/rules/replace", {"Rules": []})

    def step_enroll(self, consumer: str, name: str) -> None:
        if name in self.registered:
            _ok(self.system.consumers[consumer].add_contributors, [name])

    def step_kill(self, of: str, index: int) -> None:
        host = self.pick(of, index)
        if host and self.live(host):
            self.kill(host)

    def step_restart(self, of: str, index: int) -> None:
        """A process comes back on its directory; the broker reconciles it
        at the next tick, so the steps between meet it unreconciled."""
        host = self.pick(of, index)
        if host is None:
            return
        self.step_kill(of, index)
        back = DataStoreService(host, self.network, directory=self.system.stores[host].directory,
                                durable=True, seed=self.system.seed, overload=self.system.overload)
        self.watch(back)
        self.system.stores[host] = back
        self.unreconciled.add(host)

    def step_crash(self, of: str, index: int, point: str) -> None:
        """Arm ``point`` on a member, then drive what passes it: a write, then
        a rules append and a checkpoint on the primary, a resync on a replica
        (the write's frame rides its group window, so the resync commits)."""
        host = self.pick(of, index)
        if host is None or not self.live(host) or host in self.unreconciled:
            return
        service = self.system.stores[host]
        service.durability.faults = service.durability.wal.faults = self.armed[host] = \
            _Crash(self, host, point)
        seed = CRASH_POINTS.index(point) << 8 | len(self.answered)
        self.step_upload("alice", seed)
        if host == self.group.primary:
            self.step_rule("alice", seed)
            if self.live(host):  # a process that died writes nothing more
                _ok(service.checkpoint)
            return
        primary = self.system.stores[self.group.primary]
        link = primary.replication and primary.replication.links.get(host)
        if link and self.live(primary.host):
            link.resync, self.resyncing = True, host
            primary.replication.pump()
            self.resyncing = None

    def step_fault(self, cut, acks: int) -> None:
        """Install a fault plan: a partition named by role, lost append acks."""
        primary, replicas = self.group.primary, set(self.group.replicas)
        clients = {f"{name}-app" for name in CONSUMERS}
        everyone = {"broker", *self.system.stores, *clients, *(f"{n}-phone" for n in CONTRIBUTORS)}
        self.fault = plan = FaultPlan()
        if cut:
            side = {"ship": replicas, "one": set(sorted(replicas)[:1]), "broker": {"broker"},
                    "consumer": clients, "isolate": everyone - {primary}}[cut]
            plan.add_partition(cut, {primary}, side)
        if acks:
            plan.add_response_error(path="/api/replicate/append", fail_first=3)
        self.network.install_faults(plan)

    def step_heal(self) -> None:
        plan, self.fault = self.fault, None
        self.network.install_faults(None)
        for service in map(self.system.stores.get, self.armed):
            service.durability.faults = service.durability.wal.faults = None
        self.armed.clear()
        if plan and any(e.kind == RESPONSE_ERROR and e.outcome != "pass" for e in plan.log):
            self.coverage.add("lost append acks")
        primary = self.system.stores[self.group.primary]
        if plan is None or not self.live(primary.host) or not primary.is_primary:
            return
        tail = primary.durability.wal.last_lsn
        for side_a, side_b in plan.partitions.values():
            if primary.host in side_a and any(
                    self.live(h) and self.system.stores[h].durability.wal.last_lsn < tail
                    for h in side_b & set(self.group.replicas)):
                self.coverage.add("partition healed mid-ship")

    def step_tick(self) -> None:
        self.network.clock.advance(2_000)
        for host in sorted(self.unreconciled):
            self.system.reconcile(self.system.stores[host])
        self.unreconciled.clear()
        self.system.broker.failover.heartbeat()
        self.quiescent_match()

    def run(self, step: list) -> None:
        """One step, then the process reaper and invariants 2 and 4."""
        events = len(self.system.broker.failover.events)
        getattr(self, f"step_{step[0]}")(*step[1:])
        for service in self.reap:
            service.durability.close()
        self.reap.clear()
        promoted = [e for e in self.system.broker.failover.events[events:]
                    if e["Event"] == "promote"]
        for event in promoted:
            if event["OldPrimary"] in self.crashed_primaries:
                self.coverage.add(f"primary:{self.crashed_primaries.pop(event['OldPrimary'])}")
        self.check(bool(promoted))


def run_schedule(schedule: list, directory: str) -> dict:
    """Drive ``schedule`` in a fresh world under ``directory``; answers its
    ``Violations`` (``[invariant, detail]``, empty when every check held)
    and the ``Coverage`` rows it hit."""
    sim = _Sim(directory)
    for index, step in enumerate(schedule):
        try:
            sim.run(step)
        except Exception:  # the system raised where it must answer
            sim.violations.append((0, f"step {index} {step[0]}: {traceback.format_exc(-3)}"))
        if sim.violations:
            break
    sim.step_heal()
    for host in filter(sim.live, list(sim.system.stores)):
        sim.kill(host)
    return {"Violations": [list(v) for v in sim.violations], "Coverage": sorted(sim.coverage)}


def _schedule_edits(schedule: list):
    """Shorter schedules, the largest cut first."""
    size = len(schedule) // 2
    while size:
        for start in range(0, len(schedule) - size + 1, size):
            yield schedule[:start] + schedule[start + size:]
        size //= 2


def sweep(seed: int, directory: str) -> dict:
    """:data:`SCHEDULES` schedules from ``seed``; the first to break an
    invariant is shrunk while it breaks one of the same."""
    coverage = Counter()

    def run(schedule) -> dict:
        where = tempfile.mkdtemp(dir=directory)
        try:
            return run_schedule(schedule, where)
        finally:
            shutil.rmtree(where, ignore_errors=True)

    for index in range(SCHEDULES):
        outcome = run(generate(seed, index))
        coverage.update(outcome["Coverage"])
        failed = {v[0] for v in outcome["Violations"]}
        if failed:
            shrunk = shrink(generate(seed, index), _schedule_edits,
                            lambda s: failed & {v[0] for v in run(s)["Violations"]})
            return {"Seed": seed, "Index": index, "Coverage": dict(coverage),
                    "Violations": run(shrunk)["Violations"], "Schedule": shrunk}
    return {"Seed": seed, "Coverage": dict(coverage)}


def main(argv=None) -> int:
    """``python -m repro sim --seed N [--out F]``: exit 1 on a broken invariant."""
    parser = argparse.ArgumentParser(prog="python -m repro sim",
                                     description="Seeded whole-fleet simulation sweep.")
    parser.add_argument("--seed", type=int, default=0, help="sweep seed")
    parser.add_argument("--out", default=None, help="write a shrunken failing schedule here")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="repro-sim-") as directory:
        report = sweep(args.seed, directory)
    print(f"sim: {SCHEDULES} schedules of {STEPS} steps, seed {args.seed}; coverage:")
    for row in COVERAGE:
        print(f"  {report['Coverage'].get(row, 0):4d}  {row}")
    if "Schedule" not in report:
        print("  every invariant held — OK")
        return 0
    print(json.dumps(report, indent=1, sort_keys=True))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
    return 1


if __name__ == "__main__":
    sys.exit(main())
