"""C11 — Versioned rule-decision cache on the consumer-query hot path.

Claim under test: repeated consumer queries dominate a deployed store's
request mix (rules change orders of magnitude less often than data is
read), and the versioned release cache turns each repeat into a key
lookup — **median warm-cache latency at least 3× better than the
uncached path** on a repeated-query workload — while staying *provably*
fresh: a differential sweep drives a cached and an uncached twin through
identical query/mutation/recovery scripts and requires **zero divergent
response bytes across at least 500 comparisons**, including rule
mutations between repeats and a crash/recovery boundary (where the
restarted process starts with an empty cache, and every record recovery
installs moves the key's rules or data epoch).

Reported alongside the gates: the cold/warm latency split, the hit ratio
of the workload, and the cache's own telemetry (``cache_*`` counters and
resident-bytes gauge) in the end-of-run metrics snapshot artifact.

Run standalone for the CI smoke check::

    PYTHONPATH=src python benchmarks/bench_c11_query_cache.py --smoke
"""

import gc
import json
import os
import random
import shutil
import sys
import tempfile
import time

from repro.conformance.generators import TrialGenerator
from repro.datastore.optimizer import MergePolicy
from repro.datastore.query import DataQuery
from repro.datastore.wavesegment import segment_from_packet
from repro.net import wire
from repro.net.transport import Network
from repro.rules.model import ALLOW, DENY, Rule, TimeCondition, abstraction
from repro.server.datastore_service import DataStoreService
from repro.util.timeutil import Interval

from conftest import METRICS_OUT_DEFAULT, METRICS_OUT_ENV, format_table, report_table
from helpers import MONDAY, ecg_packets, emit_obs_snapshot

HOST = "bench"
HOURS = 1.0
REPEATS = 5
#: How many times each query shape is re-asked in the latency workload.
REPEATS_PER_SHAPE = 40
MIN_SPEEDUP = 3.0
MIN_COMPARISONS = 500

LATENCY_HEADERS = ["path", "median us/query", "vs uncached", "note"]
SWEEP_HEADERS = ["phase", "comparisons", "divergences", "cache hits"]


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def _profile_rules(hours):
    """A representative contributor profile: base grant, context
    abstractions, and short time-windowed denials (which force the
    engine through time-piecing on every evaluation — exactly the
    per-query work the cache amortizes)."""
    rules = [
        Rule(consumers=("bob",), action=ALLOW, rule_id="r-allow"),
        Rule(
            consumers=("bob",),
            contexts=("Drive",),
            action=abstraction(Stress="NotShare"),
            rule_id="r-drive",
        ),
        Rule(
            consumers=("bob",),
            contexts=("Smoking",),
            action=abstraction(Smoking="NotShare"),
            rule_id="r-smoking",
        ),
    ]
    minutes = int(hours * 60)
    for i, minute in enumerate(range(5, minutes, 10)):
        start = MONDAY + minute * 60_000
        rules.append(
            Rule(
                consumers=("bob",),
                time=TimeCondition(intervals=(Interval(start, start + 60_000),)),
                action=DENY,
                rule_id=f"r-quiet-{i}",
            )
        )
    return rules


def _build_service(hours, *, cache_capacity, directory=None, durable=False):
    """A store with one contributor's ECG day and bob's rule profile."""
    service = DataStoreService(
        HOST,
        Network(),
        seed=0,
        cache_capacity=cache_capacity,
        directory=directory,
        durable=durable,
        # Paper-sized segments ("hundreds or thousands" of samples); the
        # smaller ceiling keeps per-segment engine work in the workload.
        merge_policy=MergePolicy(max_samples=512),
    )
    service.register_contributor("alice")
    bob_key = service.register_consumer("bob")
    service.rules.replace_all("alice", _profile_rules(hours))
    for packet in ecg_packets(hours):
        service.store.add_segment(segment_from_packet("alice", packet))
    service.store.flush()
    return service, bob_key


def _query_shapes(hours):
    span_ms = int(hours * 3600 * 1000)
    return [
        DataQuery(),
        DataQuery(channels=("ECG",)),
        DataQuery(time_range=Interval(MONDAY, MONDAY + span_ms // 2)),
    ]


def _post(service, key, query):
    return service.network.request(
        "POST",
        f"https://{HOST}/api/query",
        {"Contributor": "alice", "Query": query.to_json(), "ApiKey": key},
    ).body


def _timed_queries(service, key, shapes, repeats):
    """Per-query latencies (us) for ``repeats`` rounds over the shapes."""
    samples = []
    for _ in range(repeats):
        for query in shapes:
            start = time.perf_counter()
            body = _post(service, key, query)
            samples.append((time.perf_counter() - start) * 1e6)
            assert "Error" not in body, body
    return samples


def run_latency_comparison(hours=HOURS, repeats=REPEATS_PER_SHAPE):
    """Cold/warm/uncached medians on the repeated-query workload."""
    shapes = _query_shapes(hours)
    cached, cached_key = _build_service(hours, cache_capacity=1024)
    plain, plain_key = _build_service(hours, cache_capacity=0)
    gc.collect()
    gc.disable()
    try:
        cold = _timed_queries(cached, cached_key, shapes, 1)
        warm = _timed_queries(cached, cached_key, shapes, repeats)
        uncached = _timed_queries(plain, plain_key, shapes, repeats)
    finally:
        gc.enable()
    m = cached.network.obs.metrics
    hits = m.counter_value("cache_hits_total", store=HOST)
    misses = m.counter_value("cache_misses_total", store=HOST)
    out = {
        "cold_us": _median(cold),
        "warm_us": _median(warm),
        "uncached_us": _median(uncached),
        "hit_ratio": hits / (hits + misses),
        "cache_bytes": m.gauge("cache_bytes", store=HOST).value,
        "segments": cached.store.stats.n_segments,
        "obs": cached.network.obs,
    }
    out["speedup"] = out["uncached_us"] / out["warm_us"]
    out["rows"] = [
        ["uncached (cache off)", f"{out['uncached_us']:.0f}", "1.0x", "full scan + engine"],
        ["cached, cold", f"{out['cold_us']:.0f}", "-", "miss: scan + engine + memoize"],
        [
            "cached, warm",
            f"{out['warm_us']:.0f}",
            f"{out['speedup']:.1f}x",
            f"hit ratio {out['hit_ratio']:.1%}",
        ],
    ]
    return out


# ----------------------------------------------------------------------
# Differential sweep (the freshness gate)
# ----------------------------------------------------------------------


def _load_trial(service, trial):
    service.register_contributor(trial.contributor)
    key = service.register_consumer(
        trial.consumer, groups=trial.memberships.get(trial.consumer, ())
    )
    service.set_places(trial.contributor, trial.places)
    service.rules.replace_all(trial.contributor, trial.rules)
    for segment in trial.segments:
        service.store.add_segment(segment)
    service.store.flush()
    return key


def _compare(services, keys, trial, query):
    bodies = []
    for service, key in zip(services, keys):
        body = service.network.request(
            "POST",
            f"https://{service.host}/api/query",
            {"Contributor": trial.contributor, "Query": query.to_json(), "ApiKey": key},
        ).body
        assert "Error" not in body, body
        bodies.append(wire.encode(body))
    return bodies[0] == bodies[1]


def run_divergence_sweep(n_trials=40):
    """Cached vs uncached twins under rule mutations; in-memory phase."""
    generator = TrialGenerator(5150)
    gen = TrialGenerator(99)
    comparisons, divergences, hits = 0, 0, 0
    for trial in generator.trials(n_trials):
        rng = random.Random(f"c11:{trial.seed}")
        services, keys = [], []
        for capacity in (256, 0):
            service = DataStoreService(
                "twin", Network(), seed=0, cache_capacity=capacity
            )
            services.append(service)
            keys.append(_load_trial(service, trial))
        current_rules = list(trial.rules)
        queries = [DataQuery(), gen.gen_query(rng)]
        for _ in range(3):
            for query in queries:
                for _ in range(2):  # identical repeat: the cached twin hits
                    comparisons += 1
                    divergences += 0 if _compare(services, keys, trial, query) else 1
            current_rules = current_rules + [gen.gen_rule(rng, trial.places)]
            if len(current_rules) > 1 and rng.random() < 0.5:
                current_rules.pop(rng.randrange(len(current_rules)))
            for service in services:
                service.rules.replace_all(trial.contributor, current_rules)
        comparisons += 1
        divergences += 0 if _compare(services, keys, trial, queries[0]) else 1
        hits += services[0].network.obs.metrics.counter_value(
            "cache_hits_total", store="twin"
        )
    return {"comparisons": comparisons, "divergences": divergences, "hits": hits}


def run_recovery_boundary(n_trials=4):
    """Durable twins with a crash/restart between repeated queries."""
    generator = TrialGenerator(5151)
    gen = TrialGenerator(77)
    comparisons, divergences, hits = 0, 0, 0
    for index in range(n_trials):
        trial = generator.trial(index)
        rng = random.Random(f"c11-rec:{index}")
        workdirs = [tempfile.mkdtemp(prefix="c11-") for _ in range(2)]
        try:
            services, keys = [], []
            for directory, capacity in zip(workdirs, (256, 0)):
                service = DataStoreService(
                    "twin",
                    Network(),
                    seed=0,
                    directory=directory,
                    durable=True,
                    cache_capacity=capacity,
                )
                services.append(service)
                keys.append(_load_trial(service, trial))
            query = DataQuery()
            for _ in range(3):
                comparisons += 1
                divergences += 0 if _compare(services, keys, trial, query) else 1
            rules = list(trial.rules) + [gen.gen_rule(rng, trial.places)]
            for service in services:
                service.rules.replace_all(trial.contributor, rules)
                service._wal_commit()
            comparisons += 1
            divergences += 0 if _compare(services, keys, trial, query) else 1
            hits += services[0].network.obs.metrics.counter_value(
                "cache_hits_total", store="twin"
            )
            # Crash: abandon the live twins, recover both from disk.
            restarted, keys2 = [], []
            for directory, capacity in zip(workdirs, (256, 0)):
                service = DataStoreService(
                    "twin",
                    Network(),
                    seed=0,
                    directory=directory,
                    durable=True,
                    cache_capacity=capacity,
                )
                # The consumer's groups were recovered with its role row.
                restarted.append(service)
                keys2.append(service.keys.issue(trial.consumer))
            assert len(restarted[0].release_cache) == 0  # fail-closed drop
            for _ in range(3):
                comparisons += 1
                divergences += (
                    0 if _compare(restarted, keys2, trial, query) else 1
                )
            for service in restarted:
                service.durability.close()
        finally:
            for directory in workdirs:
                shutil.rmtree(directory, ignore_errors=True)
    return {"comparisons": comparisons, "divergences": divergences, "hits": hits}


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------


def test_c11_warm_cache_speedup(benchmark):
    result = run_latency_comparison()
    report_table(
        f"C11 — Release-cache latency ({HOURS:g}h of 8 Hz ECG, "
        f"{result['segments']} segments, {REPEATS_PER_SHAPE} repeats/shape)",
        LATENCY_HEADERS,
        result["rows"],
        notes=f"Acceptance: warm-cache median ≥ {MIN_SPEEDUP:.0f}x faster than "
        "the uncached path on the repeated-query workload.",
    )
    assert result["speedup"] >= MIN_SPEEDUP, (
        f"warm-cache speedup {result['speedup']:.1f}x below {MIN_SPEEDUP:.0f}x"
    )
    assert result["hit_ratio"] > 0.9
    emit_obs_snapshot("c11_query_cache", result["obs"])

    service, key = _build_service(0.1, cache_capacity=1024)
    shapes = _query_shapes(0.1)
    _timed_queries(service, key, shapes, 1)  # prime
    benchmark(lambda: [_post(service, key, q) for q in shapes])
    benchmark.extra_info["warm_us"] = round(result["warm_us"], 1)
    benchmark.extra_info["uncached_us"] = round(result["uncached_us"], 1)
    benchmark.extra_info["speedup"] = round(result["speedup"], 2)


def test_c11_zero_divergences():
    sweep = run_divergence_sweep()
    recovery = run_recovery_boundary()
    total = sweep["comparisons"] + recovery["comparisons"]
    report_table(
        "C11 — Cached vs uncached differential sweep",
        SWEEP_HEADERS,
        [
            ["rule mutations", sweep["comparisons"], sweep["divergences"], sweep["hits"]],
            [
                "recovery boundary",
                recovery["comparisons"],
                recovery["divergences"],
                recovery["hits"],
            ],
            ["total", total, sweep["divergences"] + recovery["divergences"], "-"],
        ],
        notes=f"Acceptance: zero divergent bodies over ≥ {MIN_COMPARISONS} "
        "comparisons, rule mutations and a crash/recovery boundary included.",
    )
    assert total >= MIN_COMPARISONS
    assert sweep["divergences"] == 0 and recovery["divergences"] == 0
    assert sweep["hits"] > 0 and recovery["hits"] > 0


def main(argv) -> int:
    """CI smoke mode: reduced latency workload, full freshness gate."""
    if "--smoke" not in argv:
        print(__doc__)
        return 2
    result = run_latency_comparison(hours=0.25, repeats=15)
    print("C11 — Release-cache latency (0.25h smoke workload)")
    print(format_table(LATENCY_HEADERS, [[str(c) for c in r] for r in result["rows"]]))
    # Standalone runs write the metrics artifact themselves (under
    # pytest the terminal-summary hook does it).
    out_path = os.environ.get(METRICS_OUT_ENV, METRICS_OUT_DEFAULT)
    parent = os.path.dirname(out_path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(
            {"c11_query_cache": result["obs"].metrics.snapshot()},
            handle,
            indent=2,
            sort_keys=True,
        )
    print(f"metrics snapshot written to {out_path}")
    sweep = run_divergence_sweep()
    recovery = run_recovery_boundary(n_trials=2)
    total = sweep["comparisons"] + recovery["comparisons"]
    divergent = sweep["divergences"] + recovery["divergences"]
    print(
        f"\ndifferential sweep: {total} comparisons, {divergent} divergences, "
        f"{sweep['hits'] + recovery['hits']} cache hits"
    )
    if result["speedup"] < MIN_SPEEDUP:
        print(
            f"CACHE SMOKE FAILED: speedup {result['speedup']:.1f}x < "
            f"{MIN_SPEEDUP:.0f}x"
        )
        return 1
    if divergent or total < MIN_COMPARISONS:
        print(f"CACHE SMOKE FAILED: {divergent} divergences over {total} comparisons")
        return 1
    print(f"query-cache smoke ok ({result['speedup']:.1f}x, {total} comparisons clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
