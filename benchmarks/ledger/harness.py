"""Run one workload: setup, verify, timed rounds, traced round, record.

Run structure (see README.md):

1. **Setup**, untimed, repeated :data:`SETUPS` times on fresh deployments;
   ``setup_s`` is the median and the last deployment is the one measured.
2. **Verify**: a seeded sample of the workload's queries is replayed with a
   ``release_guards`` collector attached and every release is checked by
   the conformance oracle.
3. **Timed phase**: ``gc.collect()``, ``gc.freeze()``, then 5 rounds of a
   fixed op count, wall clock, closed loop, one client.
4. **Traced round** (``trace=True`` only): recorders are installed, one
   more deployment is built, and round 0 of the same schedule runs once
   more under the span recorders.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import tempfile
import time
import traceback

from repro.conformance.generators import Trial
from repro.conformance.invariants import check_release
from repro.conformance.runner import build_engine
from repro.net.transport import Network
from repro.server.datastore_service import DataStoreService

import calibrate
import spans
from workloads import ROUNDS, WORKLOADS, Deployment, Workload, execute, mutate, window_query

#: Deployments built per run; ``setup_s`` is their median.
SETUPS = 3
#: name -> (unit, better, bound).  The bound is the share of the baseline
#: median a metric may worsen by before it counts as regressed.  The first
#: block is reported by every workload and is the ``end_to_end`` list of
#: BENCHMARK.json; its bounds are three times the spread ten runs on ten
#: seeds showed on the reference box, capped at the contract's 25% (README,
#: "Bounds").  The second
#: block is workload-specific and only compare.py reads it.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "samples_per_s": ("1/s", "higher", 0.25),
    "op_p50_ms": ("ms", "lower", 0.20),
    "op_p95_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.10),
    "wire_bytes_per_sample": ("B", "lower", 0.03),
}
WORKLOAD_END_TO_END = {
    "failed_share": ("ratio", "lower", 0.0),
    "wal_bytes_per_sample": ("B", "lower", 0.01),
    "query_p50_ms": ("ms", "lower", 0.20),
    "query_p95_ms": ("ms", "lower", 0.25),
    "upload_p50_ms": ("ms", "lower", 0.20),
    "mutate_visible_p50_ms": ("ms", "lower", 0.20),
    "broker_byte_share": ("ratio", "lower", 0.01),
}
#: Which workload-specific metrics each workload adds to the common block.
EXTRA_METRICS = {
    "query_cold": ("failed_share",),
    "query_warm": ("failed_share",),
    "ingest_durable": ("failed_share", "wal_bytes_per_sample"),
    "fleet_mixed": (
        "failed_share",
        "query_p50_ms",
        "query_p95_ms",
        "upload_p50_ms",
        "mutate_visible_p50_ms",
        "broker_byte_share",
    ),
}

#: Count ratios read from the metrics registry over the untraced rounds.
COUNT_RATIOS = (
    ("datastore.cache.hit_share", "ratio", "higher"),
    ("datastore.cache.evictions_per_op", "count", "lower"),
    ("datastore.segment_store.scanned_per_released", "ratio", "lower"),
    ("datastore.codec.decodes_per_op", "count", "lower"),
    ("rules.engine.evaluations_per_op", "count", "lower"),
    ("rules.compiler.artifact_hit_share", "ratio", "higher"),
    ("net.transport.requests_per_op", "count", "lower"),
    ("net.client.retries_per_op", "count", "lower"),
    ("net.overload.shed_share", "ratio", "lower"),
    ("storage.wal.appends_per_op", "count", "lower"),
    ("storage.wal.commits_per_op", "count", "lower"),
    ("storage.wal.io_ms_per_op", "ms", "lower"),
    ("storage.replication.frames_per_op", "count", "lower"),
    ("broker.route.cache_hit_share", "ratio", "higher"),
    ("broker.sync.pushes_per_op", "count", "lower"),
)


def per_layer_declarations() -> list:
    """Every per-layer metric, in report order: (name, unit, better)."""
    out = []
    for layer in spans.LAYERS:
        out.append((f"{layer}.self_ms_per_op", "ms", "lower"))
        out.append((f"{layer}.calls_per_op", "count", "lower"))
    out.extend(COUNT_RATIOS)
    out.append(("trace.overhead_share", "ratio", "lower"))
    out.append(("trace.unattributed_share", "ratio", "lower"))
    return out


def quartiles(values: list) -> tuple:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile of an unsorted sample."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------


def check_event(dep: Deployment, event, received: list) -> list:
    """Oracle check of one release observed by a ``release_guards`` hook.

    The owner's current rules and places are read back through the
    ``Contributor`` API, an engine is built from them independently of
    the store, and every served segment's pieces go through
    ``check_release``.  The release must also equal the reference
    engine's, and the consumer must have parsed exactly what was released.
    """
    owner = dep.contributors[event.contributor]
    trial = Trial(
        seed="ledger",
        rules=owner.rules(),
        segments=list(event.segments),
        consumer=event.consumer,
        places=owner.places(),
    )
    reference = build_engine(trial)
    problems, expected = [], []
    for segment in event.segments:
        pieces = reference.evaluate_segment(event.consumer, segment)
        expected.extend(pieces)
        problems += [str(v) for v in check_release(trial, segment, pieces)]
    served = [piece.to_json() for piece in event.released]
    if served != [piece.to_json() for piece in expected]:
        problems.append(f"{event.contributor}: store release differs from a reference engine")
    if received is not None and served != [piece.to_json() for piece in received]:
        problems.append(f"{event.contributor}: consumer parsed something else than was released")
    return problems


def verify(workload: Workload, dep: Deployment) -> tuple:
    """Replay the verification sample under the oracle: (checked, problems)."""
    events: list = []
    stores = list(dep.system.stores.values())
    for store in stores:
        store.release_guards.append(events.append)
    checked, problems = 0, []
    try:
        for op in workload.verify_ops:
            if op.kind == "mutate":
                mutate(dep, op)
            del events[:]
            received = dep.consumers[op.consumer].fetch(op.contributor, window_query(op))
            if len(events) != 1:
                problems.append(f"{op}: {len(events)} release events for one fetch")
                continue
            problems += check_event(dep, events[0], received)
            checked += 1
    finally:
        for store in stores:
            store.release_guards.remove(events.append)
    return checked, problems


def check_durability(workload: Workload, dep: Deployment) -> list:
    """After ``ingest_durable``: a store recovered from the primary's
    directory and the replica must both hold every acknowledged sample."""
    primary = dep.system.stores[workload.host]
    replica = dep.system.stores[f"{workload.host}-r1"]
    primary.durability.close()
    recovered = DataStoreService(
        workload.host,
        Network(),
        directory=os.path.join(dep.workdir, workload.host),
        durable=True,
        wal_sync="group",
    )
    problems = []
    for name, acked in dep.acked.items():
        for label, service in (("recovered primary", recovered), ("replica", replica)):
            held = sum(s.n_samples for s in service.store.segments_of(name))
            if held != acked:
                problems.append(f"{label} holds {held} samples of {name}, {acked} acknowledged")
        if recovered.store.content_fingerprint(name) != replica.store.content_fingerprint(name):
            problems.append(f"recovered primary and replica differ on {name}")
    recovered.durability.close()
    return problems


# ----------------------------------------------------------------------
# Timed rounds
# ----------------------------------------------------------------------

#: Columns of one row of a round's ``timings``: (op kind, raw seconds,
#: calibrated seconds) — see :mod:`calibrate`.
KIND, RAW, CALIBRATED = 0, 1, 2


def run_round(dep: Deployment, ops: list, recorder=None) -> dict:
    """One closed-loop pass over ``ops``, a machine-speed probe between
    every two ops."""
    timings: list = []
    errors: list = []
    samples, pieces_before = 0, dep.pieces
    clock = time.perf_counter
    before = calibrate.probe()
    for index, op in enumerate(ops):
        t0 = clock()
        try:
            if recorder is None:
                samples += execute(dep, op)
            else:
                with recorder.root(index):
                    samples += execute(dep, op)
        except Exception:  # an op that raises is a failed op, not a failed run
            errors.append(f"{op}: {traceback.format_exc(limit=3)}")
        raw = clock() - t0
        after = calibrate.probe()
        timings.append((op.kind, raw, raw * calibrate.scale(before, after)))
        before = after
    return {
        "ops": len(ops),
        "samples": samples,
        "pieces": dep.pieces - pieces_before,
        "timings": timings,
        "errors": errors,
    }


def seconds(round_: dict, column: int = CALIBRATED) -> float:
    """Time a round's ops took: the loop is closed, so their sum."""
    return sum(row[column] for row in round_["timings"])


def read_counters(dep: Deployment, wal_host: str) -> dict:
    """Registry totals the count ratios are deltas of."""
    m = dep.system.obs.metrics
    total = m.sum_counter

    def host_bytes(**labels) -> int:
        return total("net_bytes_in_total", **labels) + total("net_bytes_out_total", **labels)

    return {
        "cache_hits": total("cache_hits_total"),
        "cache_misses": total("cache_misses_total"),
        "cache_evictions": total("cache_evictions_total"),
        "scanned": total("store_segments_scanned_total"),
        "decodes": m.gauge_value("codec_decode_calls"),
        "evaluations": total("rule_evaluations_total"),
        "artifact_hits": total("compiled_cache_hits_total"),
        "compiles": total("rules_compile_total"),
        "requests": total("net_requests_total"),
        "retries": total("client_retry_attempts_total"),
        "shed": total("admission_shed_total"),
        "served": total("admission_served_total"),
        "wal_appends": total("wal_appends_total"),
        "wal_commits": total("wal_commits_total"),
        "wal_io_s": sum(g.value for g in m.series("wal_io_seconds")),
        "wal_bytes": m.gauge_value("wal_size_bytes", store=wal_host),
        "frames": total("replication_frames_shipped_total"),
        "route_hits": total("route_cache_hits_total"),
        "route_misses": total("route_cache_misses_total"),
        "pushes": total("sync_pushes_total"),
        "wire_bytes": host_bytes(),
        "broker_bytes": host_bytes(host=dep.system.broker.host),
    }


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def count_ratios(delta: dict, ops: int, released_pieces: int) -> dict:
    return {
        "datastore.cache.hit_share": share(
            delta["cache_hits"], delta["cache_hits"] + delta["cache_misses"]
        ),
        "datastore.cache.evictions_per_op": delta["cache_evictions"] / ops,
        "datastore.segment_store.scanned_per_released": share(delta["scanned"], released_pieces),
        "datastore.codec.decodes_per_op": delta["decodes"] / ops,
        "rules.engine.evaluations_per_op": delta["evaluations"] / ops,
        "rules.compiler.artifact_hit_share": share(
            delta["artifact_hits"], delta["artifact_hits"] + delta["compiles"]
        ),
        "net.transport.requests_per_op": delta["requests"] / ops,
        "net.client.retries_per_op": delta["retries"] / ops,
        "net.overload.shed_share": share(delta["shed"], delta["shed"] + delta["served"]),
        "storage.wal.appends_per_op": delta["wal_appends"] / ops,
        "storage.wal.commits_per_op": delta["wal_commits"] / ops,
        "storage.wal.io_ms_per_op": delta["wal_io_s"] * 1000 / ops,
        "storage.replication.frames_per_op": delta["frames"] / ops,
        "broker.route.cache_hit_share": share(
            delta["route_hits"], delta["route_hits"] + delta["route_misses"]
        ),
        "broker.sync.pushes_per_op": delta["pushes"] / ops,
    }


def timed_phase(workload: Workload, dep: Deployment) -> dict:
    """The untraced rounds plus the registry deltas across them."""
    gc.collect()
    gc.freeze()
    try:
        before = read_counters(dep, workload.host)
        rounds = [run_round(dep, ops) for ops in workload.rounds]
        after = read_counters(dep, workload.host)
    finally:
        gc.unfreeze()
    return {"rounds": rounds, "delta": {k: after[k] - before[k] for k in after}}


def latencies_ms(rounds: list, column: int, kinds: tuple = ()) -> list:
    """Latencies of every op of ``rounds``, optionally of some kinds only."""
    return [
        row[column] * 1000
        for r in rounds
        for row in r["timings"]
        if not kinds or row[KIND] in kinds
    ]


def timing_metrics(rounds: list, column: int) -> dict:
    """name -> (values, op latencies each value rests on).

    Rates and the p50 are taken per round; a p95 and the per-kind p50s of
    ``fleet_mixed`` are taken over the latencies of all rounds pooled,
    because one round alone holds too few samples.
    """
    per_round = rounds[0]["ops"]
    pooled = latencies_ms(rounds, column)
    out = {
        "ops_per_s": ([r["ops"] / seconds(r, column) for r in rounds], per_round),
        "samples_per_s": ([r["samples"] / seconds(r, column) for r in rounds], per_round),
        "op_p50_ms": ([statistics.median(latencies_ms([r], column)) for r in rounds], per_round),
        "op_p95_ms": ([percentile(pooled, 0.95)], len(pooled)),
    }
    for name, kinds in (
        ("query", ("fetch", "aggregate")),
        ("upload", ("collect",)),
        ("mutate_visible", ("mutate",)),
    ):
        pooled = latencies_ms(rounds, column, kinds)
        if pooled:
            out[f"{name}_p50_ms"] = ([statistics.median(pooled)], len(pooled))
            out[f"{name}_p95_ms"] = ([percentile(pooled, 0.95)], len(pooled))
    return out


def end_to_end(workload: Workload, phase: dict, setups: list, failed_share: float) -> dict:
    """Every end-to-end metric this workload reports, with its spread.

    Times are calibrated (see :mod:`calibrate`); ``raw`` beside each is the
    same statistic of the uncorrected wall-clock times.  Counts (bytes per
    sample, failed share) cover the whole timed phase.
    """
    rounds, delta = phase["rounds"], phase["delta"]
    samples = sum(r["samples"] for r in rounds)
    timed = timing_metrics(rounds, CALIBRATED)
    raw = {name: values for name, (values, _) in timing_metrics(rounds, RAW).items()}
    raw["setup_s"] = [laps.raw_seconds for laps in setups]
    values = {
        **{name: values for name, (values, _) in timed.items()},
        "setup_s": [laps.seconds for laps in setups],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024],
        "wire_bytes_per_sample": [share(delta["wire_bytes"], samples)],
        "failed_share": [failed_share],
        "wal_bytes_per_sample": [share(delta["wal_bytes"], samples)],
        "broker_byte_share": [share(delta["broker_bytes"], delta["wire_bytes"])],
    }
    out = {}
    for name in (*END_TO_END, *EXTRA_METRICS[workload.name]):
        unit, better, bound = END_TO_END.get(name) or WORKLOAD_END_TO_END[name]
        q1, median, q3 = quartiles(values[name])
        out[name] = {
            "value": median,
            "unit": unit,
            "better": better,
            "bound": bound,
            "q1": q1,
            "q3": q3,
            "rounds": values[name],
        }
        if name in raw:
            out[name]["raw"] = statistics.median(raw[name])
        if name in timed:
            out[name]["samples"] = timed[name][1]
    return out


# ----------------------------------------------------------------------
# Traced round
# ----------------------------------------------------------------------


def traced_round(workload: Workload, workdir: str) -> tuple:
    """Build one more deployment under recorders and run round 0 on it.

    Returns ``(round result, span list)``; every patch is removed before
    returning, whatever happens.
    """
    recorder = spans.Recorder()
    recorder.install()
    try:
        dep = workload.build(workdir)
        gc.collect()
        gc.freeze()
        try:
            result = run_round(dep, workload.rounds[0], recorder)
        finally:
            gc.unfreeze()
    finally:
        recorder.uninstall()
    return result, recorder.spans


def per_layer(phase: dict, traced: dict, folded: dict) -> dict:
    """Per-layer metrics: folded spans of the traced round, count ratios
    of the untraced rounds, and the two metrics about the trace itself."""
    rounds = phase["rounds"]
    ops = traced["ops"]
    values = {}
    for layer in spans.LAYERS:
        self_seconds, calls = folded["layers"].get(layer, (0.0, 0))
        values[f"{layer}.self_ms_per_op"] = self_seconds * 1000 / ops
        values[f"{layer}.calls_per_op"] = calls / ops
    values.update(
        count_ratios(
            phase["delta"],
            sum(r["ops"] for r in rounds),
            sum(r["pieces"] for r in rounds),
        )
    )
    untraced = statistics.median(seconds(r) for r in rounds)
    values["trace.overhead_share"] = seconds(traced) / untraced - 1
    values["trace.unattributed_share"] = share(
        folded["unattributed_seconds"], folded["root_seconds"]
    )
    return {
        name: {"value": values[name], "unit": unit, "better": better}
        for name, unit, better in per_layer_declarations()
    }


# ----------------------------------------------------------------------
# One workload, start to finish
# ----------------------------------------------------------------------


def run_workload(name: str, seed: int, scale: float, trace: bool) -> dict:
    """Run one workload in this process and return its record."""
    workload = WORKLOADS[name](seed, scale)
    # Durable stores need a directory; it lives (briefly) in the working
    # directory because the benchmark may write nowhere else.
    with tempfile.TemporaryDirectory(prefix=".ledger-", dir=os.getcwd()) as tmp:
        setups, dep = [], None
        for attempt in range(SETUPS):
            dep = None  # the previous deployment is garbage before the next is built
            gc.collect()
            laps = calibrate.Laps()
            dep = workload.build(os.path.join(tmp, f"setup-{attempt}"), laps.lap)
            laps.lap()
            setups.append(laps)
        checked, problems = verify(workload, dep)
        phase = timed_phase(workload, dep)
        if name == "ingest_durable":
            problems += check_durability(workload, dep)
            checked += len(dep.acked)
        errors = [e for r in phase["rounds"] for e in r["errors"]]
        attempted = ROUNDS * workload.ops_per_round + checked
        failed = len(errors) + len(problems)
        record = {
            "workload": name,
            "why": workload.why,
            "seed": seed,
            "scale": scale,
            "schedule_hash": workload.schedule_hash(),
            "rounds": ROUNDS,
            "ops_per_round": workload.ops_per_round,
            "attempted": attempted,
            "failed": failed,
            "checked": checked,
            "problems": (errors + problems)[:10],
            "end_to_end": end_to_end(workload, phase, setups, failed / attempted),
        }
        if trace:
            del dep
            traced, span_list = traced_round(workload, os.path.join(tmp, "traced"))
            # Spans are raw wall clock; each root op's are calibrated by
            # the factor its op was.
            folded = spans.fold(
                span_list, [row[CALIBRATED] / row[RAW] for row in traced["timings"]]
            )
            record["per_layer"] = per_layer(phase, traced, folded)
            record["traced"] = {
                "ops": traced["ops"],
                "seconds": seconds(traced),
                "spans": len(span_list),
                "root_ms_per_op": folded["root_seconds"] * 1000 / traced["ops"],
            }
            record["failed"] += len(traced["errors"])
            record["problems"] = (record["problems"] + traced["errors"])[:10]
    return record
