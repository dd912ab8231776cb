"""C5 — Contributor search over synced rules (Section 5.2).

Claims: the broker "provides a web user interface for searching for data
contributors with suitable privacy rules" over its locally synced rule
copies; stores "automatically communicate with the broker to synchronize".

Workloads:

* **search quality & latency** — fleets of 20/100/300 contributors with a
  seeded mix of rule shapes; the paper's example query ("shares ECG and
  respiration at 'work', 9am-6pm weekdays") is run against the broker's
  local search and against the no-broker baseline that probes every store
  over the network.  Ground truth is computed by evaluating each store's
  own engine, so precision/recall are exact.
* **sync-mode ablation** — eager push vs periodic pull: messages carried
  and staleness window after a burst of rule edits.
"""

import time

from repro.baselines.pdv import NoBrokerDiscovery
from repro.broker.registry import ContributorRegistry
from repro.broker.search import ContributorSearch, SearchCriteria
from repro.core import SensorSafeSystem
from repro.rules.model import ALLOW, DENY, Rule, abstraction
from repro.sensors.packets import encode_upload
from repro.util.geo import BoundingBox, LabeledPlace
from repro.util.timeutil import RepeatedTime, TimeCondition

from conftest import report_table

WORK = LabeledPlace("work", BoundingBox(34.05, -118.25, 34.06, -118.24))
WORK_HOURS = TimeCondition(
    repeated=(RepeatedTime.weekly(["Mon", "Tue", "Wed", "Thu", "Fri"], "9:00am", "6:00pm"),)
)

#: Rule-shape mix: (fraction weight, rule factory).  Shapes 0/1 satisfy the
#: paper query; the others fail it in distinct ways.
RULE_SHAPES = [
    lambda: [Rule(consumers=("bob",), action=ALLOW)],
    lambda: [Rule(consumers=("bob",), time=WORK_HOURS, action=ALLOW)],
    lambda: [  # shares, but stress restricted -> closure blocks ECG/resp
        Rule(consumers=("bob",), action=ALLOW),
        Rule(consumers=("bob",), action=abstraction(Stress="NotShare")),
    ],
    lambda: [Rule(consumers=("bob",), sensors=("Accelerometer",), action=ALLOW)],
    lambda: [Rule(consumers=("carol",), action=ALLOW)],  # wrong consumer
    lambda: [],  # shares nothing
    lambda: [  # denies exactly at work
        Rule(consumers=("bob",), action=ALLOW),
        Rule(consumers=("bob",), location_labels=("work",), action=DENY),
    ],
]


def build_registry(n):
    registry = ContributorRegistry()
    expected = set()
    for i in range(n):
        name = f"c{i:03d}"
        shape = i % len(RULE_SHAPES)
        registry.register(name, f"{name}-store")
        registry.update_profile(
            name, version=1, rules=RULE_SHAPES[shape](), places=[WORK]
        )
        if shape in (0, 1):
            expected.add(name)
    return registry, expected


PAPER_QUERY = SearchCriteria(
    consumer="bob",
    channels=("ECG", "Respiration"),
    location_label="work",
    time=WORK_HOURS,
)


def test_c5_search_quality_and_latency(benchmark):
    rows = []
    for n in (20, 100, 300):
        registry, expected = build_registry(n)
        search = ContributorSearch(registry)
        start = time.perf_counter()
        matches = {r.name for r in search.search(PAPER_QUERY)}
        elapsed_ms = (time.perf_counter() - start) * 1000
        tp = len(matches & expected)
        precision = tp / len(matches) if matches else 1.0
        recall = tp / len(expected) if expected else 1.0
        rows.append(
            [n, len(expected), len(matches), f"{precision:.2f}", f"{recall:.2f}", f"{elapsed_ms:.1f}"]
        )
        assert precision == 1.0 and recall == 1.0
    report_table(
        "C5 — The paper's search: 'shares ECG+respiration at work, 9-6 weekdays'",
        ["Fleet", "Ground truth", "Matches", "Precision", "Recall", "Latency ms"],
        rows,
        notes="search evaluates the same engine the stores enforce with, so it is exact",
    )

    registry, _ = build_registry(100)
    search = ContributorSearch(registry)
    benchmark(lambda: search.search(PAPER_QUERY))


def test_c5_broker_vs_no_broker_discovery(benchmark):
    """Discovery cost: broker-local search vs probing every store."""
    from repro.collection.phone import PhoneConfig
    from repro.util.timeutil import Interval, timestamp_ms

    n = 12
    system = SensorSafeSystem(seed=31)
    monday = timestamp_ms(2011, 2, 7)
    names = []
    from helpers import ecg_packets

    packets = ecg_packets(0.05)
    for i in range(n):
        name = f"c{i:02d}"
        contributor = system.add_contributor(name)
        contributor.set_places([WORK])
        for rule in RULE_SHAPES[i % len(RULE_SHAPES)]():
            contributor.add_rule(rule)
        contributor.client.post(
            f"https://{name}-store/api/upload_packets",
            {"Contributor": name, "Upload": encode_upload(packets)},
        )
        contributor.client.post(f"https://{name}-store/api/flush", {"Contributor": name})
        names.append(name)
    bob = system.add_consumer("bob")
    bob.add_contributors(names)

    # Broker path.
    system.network.reset_metrics()
    broker_matches = bob.search(
        SearchCriteria(consumer="bob", channels=("ECG",), location_label="work")
    )
    broker_requests = sum(m.requests_in for m in system.network.metrics.values())
    broker_bytes = sum(m.total_bytes() for m in system.network.metrics.values())

    # No-broker path: probe every store with a real query.
    ring = bob.refresh_keys()
    directory = {name: (f"{name}-store", ring[f"{name}-store"]) for name in names}
    system.network.reset_metrics()
    discovery = NoBrokerDiscovery(bob.client, directory)
    window = Interval(monday, monday + packets[-1].end_ms - packets[0].start_ms)
    probe_matches = discovery.find_sharing(["ECG"], window)
    probe_requests = sum(m.requests_in for m in system.network.metrics.values())
    probe_bytes = sum(m.total_bytes() for m in system.network.metrics.values())

    report_table(
        "C5 — Discovery cost: broker search vs per-store probing (12 stores)",
        ["Path", "Matches", "Network requests", "Network bytes"],
        [
            ["broker (synced rules)", len(broker_matches), broker_requests, f"{broker_bytes:,}"],
            ["no broker (probe every store)", len(probe_matches), probe_requests, f"{probe_bytes:,}"],
        ],
        notes="probing downloads real data from every store just to discover who shares",
    )
    assert probe_requests >= n  # one query per store, minimum
    assert broker_requests <= 2  # one search API call
    assert probe_bytes > 10 * broker_bytes

    from helpers import emit_obs_snapshot

    emit_obs_snapshot("c5_discovery", system)

    benchmark(
        lambda: bob.search(
            SearchCriteria(consumer="bob", channels=("ECG",), location_label="work")
        )
    )


def test_c5_sync_mode_ablation(benchmark):
    """Eager push vs lazy pull: messages vs staleness."""
    EDITS = 10

    def run(eager):
        system = SensorSafeSystem(seed=41, eager_sync=eager)
        alice = system.add_contributor("alice")
        alice.set_places([WORK])
        system.network.reset_metrics()
        for i in range(EDITS):
            alice.add_rule(
                Rule(consumers=(f"viewer-{i}",), action=ALLOW)
            )
        def total_requests():
            return sum(m.requests_in for m in system.network.metrics.values())

        sync_messages = total_requests() - EDITS  # minus the edit requests
        stale_before = (
            system.broker.registry.get("alice").rules_version
            != system.stores["alice-store"].rules.version_of("alice")
        )
        if not eager:
            system.pull_sync()
        sync_after = total_requests() - EDITS
        return sync_messages, stale_before, sync_after, system.broker.sync.stats.skipped_no_key

    eager_msgs, eager_stale, _, eager_skipped = run(eager=True)
    lazy_msgs, lazy_stale, lazy_total, lazy_skipped = run(eager=False)
    report_table(
        f"C5 — Rule-sync ablation ({EDITS} rule edits)",
        ["Mode", "Sync messages during edits", "Stale after edits?", "Messages incl. one pull round", "Skipped (no key)"],
        [
            ["eager push", eager_msgs, "no" if not eager_stale else "YES", eager_msgs, eager_skipped],
            ["lazy pull", lazy_msgs, "yes (until next pull)" if lazy_stale else "no", lazy_total, lazy_skipped],
        ],
        notes="eager: one message per edit, zero staleness; lazy: constant message "
        "rate, bounded staleness; pulls of stores the broker holds no key for are "
        "counted as skipped, not silently dropped",
    )
    assert eager_msgs == EDITS and not eager_stale
    assert lazy_msgs == 0 and lazy_stale

    benchmark.pedantic(lambda: run(eager=True), rounds=1, iterations=1)
