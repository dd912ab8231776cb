"""The four ledger workloads: dataset, rule profile, op schedule, executor.

Everything here talks to the system through ``SensorSafeSystem``,
``Contributor``, ``Consumer`` and ``SmartphoneAgent`` with the system's
default configuration.  A workload object is built from ``(seed, scale)``
*before* any timing starts: it simulates the sensor traces, draws the op
schedule and fixes the verification sample, so the program under test only
ever sees generated inputs.  ``build()`` then stands up a fresh deployment
(the part reported as ``setup_s``) and ``execute()`` runs one op against it.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from collections import namedtuple
from dataclasses import dataclass, field

from repro.broker.search import SearchCriteria
from repro.core import SensorSafeSystem
from repro.datastore.aggregate import AggregateSpec
from repro.datastore.query import DataQuery
from repro.rules.model import ALLOW, DENY, Rule, abstraction
from repro.sensors.personas import make_persona
from repro.sensors.simulator import SimulatorConfig, TraceSimulator
from repro.util.timeutil import Interval, TimeCondition, timestamp_ms

MONDAY = timestamp_ms(2011, 2, 7)
MINUTE_MS = 60_000
HOUR_MS = 60 * MINUTE_MS
DAY_MS = 24 * HOUR_MS

#: Every trace is simulated at 5% of the hardware sampling rates: one
#: contributor-day is ~108k samples in ~2.5k stored wave segments.
RATE_SCALE = 0.05
#: One phone upload op carries this much sensor time (all channels).
BATCH_MS = 10 * MINUTE_MS
BATCHES_PER_DAY = DAY_MS // BATCH_MS
#: Every workload is timed as this many rounds of a fixed op count.
ROUNDS = 5
#: Queries replayed under the oracle before the timed phase.
VERIFY_QUERIES = 40

#: One root op of a schedule.  ``batch`` indexes the contributor's upload
#: batches (collect ops); ``start_ms``/``end_ms`` are the query window.
Op = namedtuple("Op", "kind consumer contributor start_ms end_ms batch")


class OpFailed(Exception):
    """An op returned without raising but did not do its work."""


def window_query(op: Op) -> DataQuery:
    return DataQuery(time_range=Interval(op.start_ms, op.end_ms))


def rule_profile(consumers: tuple, day_start: int) -> list:
    """~50 rules: a grant, context abstractions, one place rule, 47 denials.

    The one-minute deny windows sit at minute 15 of every half hour from
    00:45 on, so every half-hour query window crosses one and the engine
    must time-piece the segments around it.
    """
    rules = [
        Rule(consumers=consumers, action=ALLOW),
        Rule(consumers=consumers, contexts=("Drive",), action=abstraction(Stress="NotShare")),
        Rule(
            consumers=consumers,
            contexts=("Conversation",),
            action=abstraction(Conversation="NotShare"),
        ),
        Rule(
            consumers=consumers,
            location_labels=("home",),
            action=abstraction(Location="zipcode"),
        ),
    ]
    for k in range(1, 48):
        start = day_start + k * 30 * MINUTE_MS + 15 * MINUTE_MS
        rules.append(
            Rule(
                consumers=consumers,
                time=TimeCondition(intervals=(Interval(start, start + MINUTE_MS),)),
                action=DENY,
            )
        )
    return rules


@dataclass
class Person:
    """One contributor's generated inputs."""

    name: str
    persona: object
    preload: list  # packets loaded during setup
    batches: list = field(default_factory=list)  # upload ops: lists of packets


def simulate(name: str, index: int, seed: int, days: int) -> tuple:
    """A persona and its packets for ``days`` days from MONDAY."""
    persona = make_persona(
        name,
        commute_mode=("Drive", "Walk", "Bike")[index % 3],
        stress_prob=0.25 + 0.05 * (index % 3),
        seed_offset=0.001 * index,
    )
    trace = TraceSimulator(persona, SimulatorConfig(rate_scale=RATE_SCALE), seed=seed).run(
        MONDAY, days=days
    )
    return persona, trace.all_packets_sorted()


def batched(packets: list, start_ms: int, count: int) -> list:
    """``count`` consecutive BATCH_MS slices of a packet stream."""
    out = [[] for _ in range(count)]
    for packet in packets:
        slot = (packet.start_ms - start_ms) // BATCH_MS
        if 0 <= slot < count:
            out[slot].append(packet)
    return out


class Deployment:
    """A built system plus the client handles the executor drives."""

    def __init__(self, system: SensorSafeSystem, workdir: str = "", lap=lambda: None):
        self.system = system
        self.workdir = workdir
        #: called after every setup step, so the harness can time setup in laps
        self.lap = lap
        self.contributors: dict = {}
        self.consumers: dict = {}
        self.phones: dict = {}
        self.batches: dict = {}
        #: contributor -> id of the live 2-minute deny rule (mutate ops)
        self.live_deny: dict = {}
        #: samples the store acknowledged per contributor (collect ops)
        self.acked: dict = {}
        #: released pieces consumers received (fetch ops)
        self.pieces = 0

    def add_person(self, person: Person, store, rules: list) -> None:
        handle = self.system.add_contributor(person.name, store=store)
        handle.set_places(person.persona.places.values())
        handle.replace_rules(rules)
        phone = handle.phone()
        kept = phone.collect(person.preload) if person.preload else []
        self.contributors[person.name] = handle
        self.phones[person.name] = phone
        self.batches[person.name] = person.batches
        self.acked[person.name] = sum(len(p.values) for p in kept)
        self.lap()

    def add_consumers(self, names: tuple) -> None:
        for name in names:
            consumer = self.system.add_consumer(name)
            consumer.add_contributors(list(self.contributors))
            self.consumers[name] = consumer
        self.lap()


def fetch(dep: Deployment, op: Op) -> int:
    released = dep.consumers[op.consumer].fetch(op.contributor, window_query(op))
    dep.pieces += len(released)
    return sum(piece.n_samples for piece in released)


def execute(dep: Deployment, op: Op) -> int:
    """Run one op through the public API; returns samples delivered."""
    if op.kind == "fetch":
        return fetch(dep, op)
    if op.kind == "aggregate":
        rows = dep.consumers[op.consumer].fetch_aggregate(
            op.contributor, AggregateSpec("mean", 5 * MINUTE_MS), window_query(op)
        )
        return sum(row.count for row in rows)
    if op.kind == "collect":
        return collect(dep, op)
    if op.kind == "mutate":
        mutate(dep, op)
        return fetch(dep, op)
    if op.kind == "search":
        dep.consumers[op.consumer].search(
            SearchCriteria(consumer=op.consumer, channels=("ECG",))
        )
        return 0
    if op.kind == "pull_sync":
        dep.system.pull_sync()
        return 0
    raise ValueError(f"unknown op kind {op.kind!r}")


def collect(dep: Deployment, op: Op) -> int:
    """One phone upload; ``collect`` swallows transport errors, so the
    agent's own counters decide whether the store acknowledged it."""
    phone = dep.phones[op.contributor]
    packets = dep.batches[op.contributor][op.batch]
    failures = phone.stats.upload_failures
    kept = phone.collect(packets)
    if phone.stats.upload_failures != failures or phone.offline_backlog:
        raise OpFailed(f"upload of batch {op.batch} for {op.contributor} not acknowledged")
    samples = sum(len(p.values) for p in kept)
    dep.acked[op.contributor] += samples
    return samples


def mutate(dep: Deployment, op: Op) -> None:
    """Add the 2-minute deny window, or remove the live one."""
    handle = dep.contributors[op.contributor]
    live = dep.live_deny.pop(op.contributor, None)
    if live is not None:
        handle.remove_rule(live)
        return
    start = op.start_ms + 10 * MINUTE_MS
    dep.live_deny[op.contributor] = handle.add_rule(
        Rule(
            consumers=(op.consumer,),
            time=TimeCondition(intervals=(Interval(start, start + 2 * MINUTE_MS),)),
            action=DENY,
        )
    )


class Workload:
    """Inputs and schedule of one workload, fixed before timing starts."""

    name = ""
    why = ""
    #: ops per round at scale 1
    base_ops = 0
    #: seconds the timed phase takes at scale 1 on the reference box, raw
    #: wall clock with its usual neighbours; ``--seconds S`` runs the
    #: workload at scale ``S / scale_1_seconds``
    scale_1_seconds = 25.0
    consumers: tuple = ()
    #: the durable store whose WAL is measured, if the workload has one
    host = ""

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = int(seed)
        self.scale = float(scale)
        self.ops_per_round = max(1, round(self.base_ops * self.scale))
        self.rng = random.Random(f"{self.name}/{self.seed}")
        self.people: list = []
        self.make_inputs()
        self.rounds: list = self.make_rounds()
        self.verify_ops: list = self.make_verify_ops()

    # -- overridden per workload ----------------------------------------

    def make_inputs(self) -> None:
        raise NotImplementedError

    def make_rounds(self) -> list:
        raise NotImplementedError

    def make_verify_ops(self) -> list:
        raise NotImplementedError

    def build(self, workdir: str, lap=lambda: None) -> Deployment:
        raise NotImplementedError

    # -------------------------------------------------------------------

    def schedule_hash(self) -> str:
        """Digest of every op of every round, in order, and of the
        generated sensor values (an upload schedule alone is the same for
        every seed)."""

        def total(packets: list) -> float:
            return sum(sum(p.values) for p in packets)

        inputs = [
            [p.name, total(p.preload), [total(batch) for batch in p.batches]]
            for p in self.people
        ]
        payload = json.dumps([[list(op) for ops in self.rounds for op in ops], inputs])
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


class _LabQueries(Workload):
    """Shared by the two query workloads: one institutional store, four
    contributors with one simulated day each, two consumers."""

    consumers = ("bob", "carol")
    n_people = 4

    def make_inputs(self) -> None:
        for i in range(self.n_people):
            name = f"subject-{i + 1}"
            persona, packets = simulate(name, i, self.seed, days=1)
            self.people.append(Person(name, persona, packets))

    def build(self, workdir: str, lap=lambda: None) -> Deployment:
        system = SensorSafeSystem(seed=self.seed)
        dep = Deployment(system, lap=lap)
        store = system.create_store("lab-store", institution="UCLA")
        rules = rule_profile(self.consumers, MONDAY)
        for person in self.people:
            dep.add_person(person, store, rules)
        dep.add_consumers(self.consumers)
        self.prime(dep)
        return dep

    def prime(self, dep: Deployment) -> None:
        """Cache priming that belongs to setup (none by default)."""

    def cold_ops(self, count: int, first_shift: int) -> list:
        """``count`` half-hour fetches, each shifted by its own millisecond
        so no (consumer, contributor, window) shape ever repeats."""
        ops = []
        for i in range(count):
            start = MONDAY + self.rng.randrange(1, 46) * 30 * MINUTE_MS + first_shift + i
            ops.append(
                Op(
                    "fetch",
                    self.rng.choice(self.consumers),
                    self.rng.choice(self.people).name,
                    start,
                    start + 30 * MINUTE_MS,
                    -1,
                )
            )
        return ops

    def make_verify_ops(self) -> list:
        # Shifted past every timed op, so verification pre-fills the
        # release cache with shapes the timed phase never asks for.
        return self.cold_ops(VERIFY_QUERIES, first_shift=MINUTE_MS)


class QueryCold(_LabQueries):
    name = "query_cold"
    why = (
        "every fetch is a new query shape, so it misses the release cache: store scan, "
        "per-query RuleEngine build, evaluation and release serialization do the work; "
        "WAL and broker do none"
    )
    base_ops = 240

    def make_rounds(self) -> list:
        ops = self.cold_ops(ROUNDS * self.ops_per_round, first_shift=0)
        n = self.ops_per_round
        return [ops[r * n : (r + 1) * n] for r in range(ROUNDS)]


class QueryWarm(_LabQueries):
    name = "query_warm"
    why = (
        "48 hour-window shapes primed in setup, asked round-robin: every op hits the "
        "release cache, so per-request costs (JSON, admission, auth, audit, telemetry, "
        "client decode) dominate"
    )
    base_ops = 1200
    hours_per_pair = 6

    def shapes(self) -> list:
        """Each consumer asks every hour of the day once: the seed deals
        the 24 hours to the 4 contributors, so which window belongs to whom
        is seeded but every seed mixes night, commute and work hours in the
        same proportion."""
        out = []
        for consumer in self.consumers:
            hours = self.rng.sample(range(24), 24)
            for i, person in enumerate(self.people):
                for hour in hours[i * self.hours_per_pair : (i + 1) * self.hours_per_pair]:
                    start = MONDAY + hour * HOUR_MS
                    out.append(Op("fetch", consumer, person.name, start, start + HOUR_MS, -1))
        return out

    def make_rounds(self) -> list:
        self._shapes = self.shapes()
        k = len(self._shapes)
        n = self.ops_per_round
        return [
            [self._shapes[(r * n + i) % k] for i in range(n)] for r in range(ROUNDS)
        ]

    def prime(self, dep: Deployment) -> None:
        for op in self._shapes:
            execute(dep, op)
            dep.lap()

    def make_verify_ops(self) -> list:
        return list(self._shapes[:VERIFY_QUERIES])


class IngestDurable(Workload):
    name = "ingest_durable"
    why = (
        "the write path: phone gating, context annotation, packet JSON, optimizer and "
        "index, WAL append and group fsync, semi-sync ship-and-apply to one replica; "
        "rule engine and cache do nothing"
    )
    base_ops = 288
    scale_1_seconds = 15.0
    consumers = ("bob",)
    n_people = 2
    host = "clinic"
    #: Each stream's first hours are uploaded during setup, so ``setup_s``
    #: times a durable, replicated load and not just 16 fsyncs of empty
    #: files, which no two runs agree on.
    preload_hours = 6

    def make_inputs(self) -> None:
        split = MONDAY + self.preload_hours * HOUR_MS
        per_person = -(-ROUNDS * self.ops_per_round // self.n_people)
        days = -(-(per_person + self.preload_hours * 6) // BATCHES_PER_DAY)
        for i in range(self.n_people):
            name = f"patient-{i + 1}"
            persona, packets = simulate(name, i, self.seed, days=days)
            preload = [p for p in packets if p.start_ms < split]
            self.people.append(Person(name, persona, preload, batched(packets, split, per_person)))

    def make_rounds(self) -> list:
        n = self.ops_per_round
        ops = [
            Op("collect", "", self.people[i % self.n_people].name, 0, 0, i // self.n_people)
            for i in range(ROUNDS * n)
        ]
        return [ops[r * n : (r + 1) * n] for r in range(ROUNDS)]

    def make_verify_ops(self) -> list:
        return []  # no queries; the durability check runs after the rounds

    def build(self, workdir: str, lap=lambda: None) -> Deployment:
        system = SensorSafeSystem(seed=self.seed)
        dep = Deployment(system, workdir, lap)
        primary = system.create_replicated_store(
            self.host,
            directory=workdir,
            n_replicas=1,
            institution="UCLA",
            mode="semi-sync",
            wal_sync="group",
        )
        for person in self.people:
            dep.add_person(person, primary, [Rule(consumers=self.consumers, action=ALLOW)])
        dep.add_consumers(self.consumers)
        return dep


class FleetMixed(Workload):
    name = "fleet_mixed"
    why = (
        "reads beside writes on a 4-shard fleet, Zipf(1) popularity: uploads and rule "
        "mutations move the cache key, so a gain on one path that taxes the other "
        "shows; also routing, broker sync, search"
    )
    base_ops = 400
    scale_1_seconds = 30.0
    consumers = ("bob", "carol", "dave", "erin")
    n_people = 16
    n_shards = 4
    preload_hours = 12
    #: exact per-round mix, in op-kind order
    mix = (
        ("fetch", 0.62),
        ("aggregate", 0.10),
        ("collect", 0.14),
        ("mutate", 0.08),
        ("search", 0.04),
        ("pull_sync", 0.02),
    )

    def make_inputs(self) -> None:
        split = MONDAY + self.preload_hours * HOUR_MS
        for i in range(self.n_people):
            name = f"citizen-{i + 1:02d}"
            persona, packets = simulate(name, i, self.seed, days=2)
            preload = [p for p in packets if p.start_ms < split]
            self.people.append(
                Person(
                    name,
                    persona,
                    preload,
                    batched(packets, split, 2 * BATCHES_PER_DAY - self.preload_hours * 6),
                )
            )

    def _round_kinds(self) -> list:
        n = self.ops_per_round
        kinds = []
        for kind, share in self.mix[1:]:
            kinds += [kind] * max(1, round(n * share))
        kinds += ["fetch"] * max(1, n - len(kinds))
        self.rng.shuffle(kinds)
        return kinds[:n]

    def make_rounds(self) -> list:
        ranked = list(self.people)
        self.rng.shuffle(ranked)
        weights = [1.0 / rank for rank in range(1, len(ranked) + 1)]
        next_batch = {p.name: 0 for p in ranked}
        live: dict = {}  # contributor -> (consumer, hour) of the live deny rule
        rounds = []
        for _ in range(ROUNDS):
            ops = []
            for kind in self._round_kinds():
                person = self.rng.choices(ranked, weights)[0]
                consumer = self.rng.choice(self.consumers)
                hour = self.rng.randrange(self.preload_hours)
                batch = -1
                if kind == "collect":
                    batch = next_batch[person.name]
                    if batch >= len(person.batches):
                        kind = "fetch"  # stream exhausted: read instead
                    else:
                        next_batch[person.name] += 1
                elif kind == "mutate":
                    # A removal re-reads the window its add denied.
                    consumer, hour = live.pop(person.name, None) or live.setdefault(
                        person.name, (consumer, hour)
                    )
                if kind in ("search", "pull_sync"):
                    ops.append(Op(kind, consumer, "", 0, 0, -1))
                    continue
                start = MONDAY + hour * HOUR_MS
                ops.append(Op(kind, consumer, person.name, start, start + HOUR_MS, batch))
            rounds.append(ops)
        return rounds

    def make_verify_ops(self) -> list:
        """Fetches from the schedule plus add/remove pairs, so releases are
        checked both under a fresh deny window and after its removal."""
        fetches = [op for ops in self.rounds for op in ops if op.kind == "fetch"]
        sample = self.rng.sample(fetches, min(len(fetches), VERIFY_QUERIES - 8))
        pairs = []
        for op in sample[:4]:
            mutation = op._replace(kind="mutate")
            pairs += [mutation, mutation]
        return sample + pairs

    def build(self, workdir: str, lap=lambda: None) -> Deployment:
        system = SensorSafeSystem(seed=self.seed)
        dep = Deployment(system, lap=lap)
        system.create_shard_fleet(self.n_shards, institution="UCLA")
        rules = rule_profile(self.consumers, MONDAY)[:4]
        for person in self.people:
            dep.add_person(person, None, rules)
        dep.add_consumers(self.consumers)
        return dep


WORKLOADS = {w.name: w for w in (QueryCold, QueryWarm, IngestDurable, FleetMixed)}
