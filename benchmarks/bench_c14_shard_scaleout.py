"""C14 — Shard scale-out: the directory service at smart-city scale.

Claim under test: partitioning contributors across store shards behind
the broker's versioned directory keeps the *broker* out of the scaling
path.  Three phases:

* **A — directory lookups.**  Synthetic registries from 10k to 1M
  contributors spread over a 16-shard ring; measured qps and p50/p99
  latency of ``ShardDirectory.route``.  The route is a dict hit plus an
  epoch read, so the curve must stay ~flat — the gate is a qps floor at
  the *largest* contributor count.
* **B — broker requests vs shard count.**  A live fleet at 1/2/4 shards
  serving the same consumer workload.  Because clients cache routes and
  the directory only answers one ``/api/route`` miss per (consumer,
  contributor), broker request volume must stay ~flat as the fleet
  grows while data requests spread across shards.
* **C — live shard split under load.**  Contributor uploads interleave
  with an online ``split_shard``; a phone pointed at the source shard
  gets fenced (409), re-keys via the directory runbook, and retries.
  Gates: **zero committed-write loss** (every acknowledged sample is
  readable from the new topology) and **zero oracle divergences**
  (PR 2 conformance harness across the migration boundary), with
  nothing left fail-closed.  The source sends the moved range to the
  destination itself, so the bytes through the broker during the split
  must not grow when each moved contributor's samples double.

Run standalone for the CI smoke check (small points only)::

    PYTHONPATH=src python benchmarks/bench_c14_shard_scaleout.py --smoke
"""

import json
import os
import random
import sys
import time

from repro.broker.directory import ShardDirectory
from repro.broker.registry import ContributorRegistry
from repro.conformance.generators import Trial
from repro.conformance.invariants import check_release
from repro.conformance.runner import diff_segment
from repro.core import SensorSafeSystem
from repro.datastore.wavesegment import WaveSegment
from repro.exceptions import NotPrimaryError
from repro.net import wire
from repro.rules.model import ALLOW, Rule
from repro.util.geo import LatLon

from conftest import METRICS_OUT_DEFAULT, METRICS_OUT_ENV, format_table, report_table
from helpers import MONDAY, emit_obs_snapshot

import numpy as np

UCLA = LatLon(34.0689, -118.4452)
HOUR = 3_600_000

#: Phase A — synthetic registry sizes (contributors) on a 16-shard ring.
CONTRIBUTOR_COUNTS = (10_000, 100_000, 1_000_000)
SMOKE_CONTRIBUTOR_COUNTS = (10_000,)
DIRECTORY_SHARDS = 16
LOOKUPS = 20_000
#: The directory is a dict hit; even at 1M contributors it must beat this.
MIN_ROUTE_QPS = 20_000.0

#: Phase B — live fleet sizes serving an identical consumer workload.
FLEET_SIZES = (1, 2, 4)
SMOKE_FLEET_SIZES = (1, 2)
FLEET_CONTRIBUTORS = 16
FETCH_ROUNDS = 3
#: Broker requests may not grow with the fleet (route caching at work).
MAX_BROKER_GROWTH = 1.10

#: Phase C — upload rounds; the split fires halfway through.
SPLIT_ROUNDS = 10
SMOKE_SPLIT_ROUNDS = 6
SAMPLES_PER_SEGMENT = 16

ALLOW_BOB = Rule(consumers=("bob",), action=ALLOW)

A_HEADERS = ("contributors", "shards", "lookups", "route qps", "p50 us", "p99 us")
B_HEADERS = (
    "shards", "broker reqs", "busiest shard reqs", "route misses", "route hits",
)
C_HEADERS = ("metric", "value")


def _segment(contributor: str, index: int, samples: int = SAMPLES_PER_SEGMENT) -> WaveSegment:
    return WaveSegment(
        contributor=contributor,
        channels=("ECG",),
        start_ms=MONDAY + index * HOUR,
        interval_ms=1000,
        values=np.arange(samples, dtype=float).reshape(-1, 1),
        location=UCLA,
        context={
            "Activity": "Still",
            "Stress": "NotStressed",
            "Conversation": "NotConversation",
            "Smoking": "NotSmoking",
        },
    )


def _sample_count(pieces) -> int:
    return sum(
        len(p.segment.sample_times()) for p in pieces if p.segment is not None
    )


# ----------------------------------------------------------------------
# Phase A — directory lookups at synthetic fleet scale
# ----------------------------------------------------------------------


def run_directory_lookups(counts=CONTRIBUTOR_COUNTS) -> dict:
    rows, results = [], []
    for n_contributors in counts:
        registry = ContributorRegistry()
        directory = ShardDirectory(registry)
        for shard in range(1, DIRECTORY_SHARDS + 1):
            directory.add_shard(f"shard-{shard}")
        ring = directory.ring
        for i in range(n_contributors):
            name = f"user-{i}"
            registry.register(name, ring.route(name))
        rng = random.Random(n_contributors)
        names = [f"user-{rng.randrange(n_contributors)}" for _ in range(LOOKUPS)]
        latencies = []
        started = time.perf_counter()
        for name in names:
            t0 = time.perf_counter()
            directory.route(name)
            latencies.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - started
        latencies.sort()
        qps = LOOKUPS / elapsed
        p50_us = latencies[len(latencies) // 2] * 1e6
        p99_us = latencies[int(len(latencies) * 0.99)] * 1e6
        results.append({"contributors": n_contributors, "qps": qps, "p99_us": p99_us})
        rows.append(
            [
                f"{n_contributors:,}",
                DIRECTORY_SHARDS,
                f"{LOOKUPS:,}",
                f"{qps:,.0f}",
                f"{p50_us:.1f}",
                f"{p99_us:.1f}",
            ]
        )
    return {"rows": rows, "results": results}


# ----------------------------------------------------------------------
# Phase B — broker request volume vs shard count
# ----------------------------------------------------------------------


def run_broker_flatness(fleet_sizes=FLEET_SIZES) -> dict:
    rows, results = [], []
    for n_shards in fleet_sizes:
        system = SensorSafeSystem(seed=n_shards)
        system.create_shard_fleet(n_shards)
        names = []
        for i in range(FLEET_CONTRIBUTORS):
            name = f"user-{i:02d}"
            person = system.add_contributor(name)
            person.add_rule(ALLOW_BOB)
            person.upload_segments([_segment(name, 0)])
            person.flush()
            names.append(name)
        bob = system.add_consumer("bob")
        bob.add_contributors(names)
        # Drop the routes the add_contributors response pre-warmed so the
        # workload pays its real one-miss-per-contributor directory cost.
        bob._hosts.clear()
        system.network.reset_metrics()
        for _ in range(FETCH_ROUNDS):
            for name in names:
                assert len(bob.fetch(name)) == 1
        broker_reqs = system.network.metrics_of("broker").requests_in
        shard_reqs = max(
            system.network.metrics_of(f"shard-{i}").requests_in
            for i in range(1, n_shards + 1)
        )
        metrics = system.obs.metrics
        misses = metrics.counter_value("route_cache_misses_total")
        hits = metrics.counter_value("route_cache_hits_total")
        results.append({"shards": n_shards, "broker_reqs": broker_reqs})
        rows.append([n_shards, broker_reqs, shard_reqs, misses, hits])
    return {"rows": rows, "results": results}


# ----------------------------------------------------------------------
# Phase C — live split under load, zero loss, zero divergences
# ----------------------------------------------------------------------


def _through_broker(system, action):
    """``(action(), bytes)``: what ``action`` answers, and the wire bytes of
    every body sent to, sent by or answered to the broker meanwhile."""
    network, broker = system.network, system.broker.host
    request, crossed = network.request, []

    def counted(method, url, body=None, *, client="anonymous", headers=None):
        response = request(method, url, body, client=client, headers=headers)
        if broker in (client, network.parse_url(url)[1]):
            crossed.append(wire.size(body or {}) + wire.size(response.body))
        return response

    network.request = counted
    try:
        return action(), sum(crossed)
    finally:
        del network.request


def run_live_split(tmp_dir: str, rounds=SPLIT_ROUNDS, samples=SAMPLES_PER_SEGMENT) -> dict:
    system = SensorSafeSystem(seed=14)
    system.create_shard_fleet(1, directory=tmp_dir, durable=True)
    # "dora" ring-routes to shard-2 on a two-shard ring (deterministic
    # hash), so the split provably exercises the migration machinery.
    names = ("alice", "dora")
    people = {}
    for name in names:
        person = system.add_contributor(name)
        person.add_rule(ALLOW_BOB)
        people[name] = person
    bob = system.add_consumer("bob")
    bob.add_contributors(list(names))

    committed = {name: [] for name in names}  # acked segments only
    fenced_retries = 0
    epoch_before = system.broker.directory.routing_epoch
    report = None
    for index in range(rounds):
        if index == rounds // 2:
            report, broker_bytes = _through_broker(system, lambda: system.split_shard(
                "shard-1", "shard-2", directory=tmp_dir, durable=True
            ))
        for name in names:
            segment = _segment(name, index, samples)
            person = people[name]
            try:
                person.upload_segments([segment])
                person.flush()
            except NotPrimaryError:
                # The phone hit the fence on the old shard: nothing was
                # acknowledged.  Re-key via the directory runbook and
                # retry — the operational story for a migrated phone.
                fenced_retries += 1
                person = system.repoint_contributor(name)
                people[name] = person
                person.upload_segments([segment])
                person.flush()
            committed[name].append(segment)

    assert report is not None
    lost = 0
    divergences = 0
    for name in names:
        pieces = bob.fetch(name)
        got = _sample_count(pieces)
        want = sum(len(s.sample_times()) for s in committed[name])
        lost += max(0, want - got)
        for segment in committed[name]:
            trial = Trial(
                seed=f"c14-{name}", rules=[ALLOW_BOB], segments=[segment]
            )
            covering = [
                p for p in pieces
                if p.interval.start >= segment.interval.start
                and p.interval.end <= segment.interval.end
            ]
            divergences += len(check_release(trial, segment, covering))
            divergences += len(diff_segment(trial, segment, covering))
    moved = report["Moved"]
    result = {
        "rounds": rounds,
        "moved": moved,
        "fenced_retries": fenced_retries,
        "fail_closed": report["FailClosed"],
        "records_shipped": report["RecordsShipped"],
        "epoch_before": epoch_before,
        "epoch_after": system.broker.directory.routing_epoch,
        "lost_samples": lost,
        "divergences": divergences,
        "broker_bytes": broker_bytes,
        "system": system,
    }
    result["rows"] = [
        ["upload rounds (x2 contributors)", rounds],
        ["contributors moved by split", moved],
        ["records shipped", result["records_shipped"]],
        ["fenced retries (phones)", fenced_retries],
        ["fail-closed after cutover", len(result["fail_closed"])],
        ["routing epoch", f"{epoch_before} -> {result['epoch_after']}"],
        ["committed samples lost", lost],
        ["oracle divergences", divergences],
        ["bytes through the broker during the split", broker_bytes],
    ]
    return result


def run_doubled_split(tmp_dir: str, split: dict) -> dict:
    """The split of ``split`` again, with each segment's samples doubled."""
    doubled = run_live_split(tmp_dir, rounds=split["rounds"], samples=2 * SAMPLES_PER_SEGMENT)
    split["rows"].append(
        ["... with each moved contributor's samples doubled", doubled["broker_bytes"]]
    )
    split["doubled_broker_bytes"] = doubled["broker_bytes"]
    return split


def _check_gates(lookups, flatness, split) -> list:
    failures = []
    worst = lookups["results"][-1]
    if worst["qps"] < MIN_ROUTE_QPS:
        failures.append(
            f"directory route qps {worst['qps']:,.0f} < {MIN_ROUTE_QPS:,.0f} "
            f"at {worst['contributors']:,} contributors"
        )
    base = flatness["results"][0]["broker_reqs"]
    for point in flatness["results"][1:]:
        if point["broker_reqs"] > base * MAX_BROKER_GROWTH:
            failures.append(
                f"broker requests grew with the fleet: {point['broker_reqs']} "
                f"at {point['shards']} shards vs {base} at 1 shard"
            )
    if split["moved"] < 1:
        failures.append("split moved no contributors")
    if split["lost_samples"]:
        failures.append(f"{split['lost_samples']} committed samples lost")
    if split["divergences"]:
        failures.append(f"{split['divergences']} oracle divergences")
    if split["fail_closed"]:
        failures.append(f"stuck fail-closed after cutover: {split['fail_closed']}")
    if split["epoch_after"] <= split["epoch_before"]:
        failures.append("split did not advance the routing epoch")
    if split["doubled_broker_bytes"] > split["broker_bytes"]:
        failures.append(
            f"the broker carried the moved range: {split['doubled_broker_bytes']} B "
            f"with doubled samples vs {split['broker_bytes']} B"
        )
    return failures


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------


def test_c14_shard_scaleout(benchmark, tmp_path):
    lookups = run_directory_lookups(counts=CONTRIBUTOR_COUNTS[:2])
    report_table(
        f"C14 — Directory route qps/latency ({DIRECTORY_SHARDS} shards)",
        A_HEADERS,
        lookups["rows"],
        notes=f"Acceptance: ≥ {MIN_ROUTE_QPS:,.0f} route/s at the largest "
        "fleet; full 1M-contributor point in the standalone run.",
    )
    flatness = run_broker_flatness()
    report_table(
        f"C14 — Broker requests vs shard count ({FLEET_CONTRIBUTORS} "
        f"contributors x {FETCH_ROUNDS} fetch rounds)",
        B_HEADERS,
        flatness["rows"],
        notes="Acceptance: broker request volume ~flat as shards grow "
        "(route caching keeps the broker off the data path).",
    )
    split = run_doubled_split(str(tmp_path / "doubled"), run_live_split(str(tmp_path)))
    report_table(
        "C14 — Live shard split under upload load",
        C_HEADERS,
        split["rows"],
        notes="Acceptance: zero committed-write loss, zero oracle "
        "divergences, nothing fail-closed, epoch advanced, and no more "
        "bytes through the broker when the moved samples double.",
    )
    failures = _check_gates(lookups, flatness, split)
    assert not failures, "; ".join(failures)
    emit_obs_snapshot("c14_shard_scaleout", split["system"])

    registry = ContributorRegistry()
    directory = ShardDirectory(registry)
    for shard in range(1, DIRECTORY_SHARDS + 1):
        directory.add_shard(f"shard-{shard}")
    for i in range(10_000):
        name = f"user-{i}"
        registry.register(name, directory.ring.route(name))
    names = [f"user-{i % 10_000}" for i in range(LOOKUPS)]
    benchmark(lambda: [directory.route(n) for n in names])
    benchmark.extra_info["route_qps_at_100k"] = round(
        lookups["results"][-1]["qps"]
    )


def main(argv) -> int:
    """CI smoke mode: small points of all three phases plus the gates."""
    if "--smoke" not in argv:
        print(__doc__)
        return 2
    import tempfile

    lookups = run_directory_lookups(counts=SMOKE_CONTRIBUTOR_COUNTS)
    print(f"C14 — Directory route qps/latency ({DIRECTORY_SHARDS} shards)")
    print(format_table(A_HEADERS, [[str(c) for c in r] for r in lookups["rows"]]))
    flatness = run_broker_flatness(fleet_sizes=SMOKE_FLEET_SIZES)
    print("\nC14 — Broker requests vs shard count")
    print(format_table(B_HEADERS, [[str(c) for c in r] for r in flatness["rows"]]))
    with tempfile.TemporaryDirectory(prefix="c14-") as tmp_dir:
        split = run_live_split(os.path.join(tmp_dir, "once"), rounds=SMOKE_SPLIT_ROUNDS)
        split = run_doubled_split(os.path.join(tmp_dir, "doubled"), split)
    print("\nC14 — Live shard split under upload load")
    print(format_table(C_HEADERS, [[str(c) for c in r] for r in split["rows"]]))
    out_path = os.environ.get(METRICS_OUT_ENV, METRICS_OUT_DEFAULT)
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(
            {"c14_shard_scaleout": split["system"].obs.metrics.snapshot()},
            handle,
            indent=2,
            sort_keys=True,
        )
    print(f"\nmetrics snapshot written to {out_path}")
    failures = _check_gates(lookups, flatness, split)
    if failures:
        for failure in failures:
            print(f"SHARD SMOKE FAILED: {failure}")
        return 1
    print(
        f"shard scale-out smoke ok ({lookups['results'][-1]['qps']:,.0f} "
        f"route/s, {split['moved']} moved, {split['lost_samples']} lost, "
        f"{split['divergences']} divergences, {split['broker_bytes']} B through "
        "the broker at both sample counts)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
