"""Self-tests of the perf ledger: ``python -m pytest benchmarks/ledger -q``.

Not collected in tier-1 (``testpaths = ["tests"]``).  They run every
workload at ``--scale 0.05`` with a small verification sample, so the whole
file finishes in about a minute.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.join(HERE, os.pardir, os.pardir)
sys.path[:0] = [HERE, os.path.join(REPO, "src")]

import compare  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SCALE = 0.05
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: Per-layer metrics that are times, so do not repeat exactly.
TIMES = re.compile(r"\.self_ms_per_op$|^storage\.wal\.io_ms_per_op$|^trace\.")


@pytest.fixture(scope="module")
def quick(request):
    """One setup and a 10-query verification sample instead of 3 and 40."""
    saved = harness.SETUPS, workloads.VERIFY_QUERIES
    harness.SETUPS, workloads.VERIFY_QUERIES = 1, 10
    yield
    harness.SETUPS, workloads.VERIFY_QUERIES = saved


@pytest.fixture(scope="module")
def records(quick, tmp_path_factory):
    os.chdir(tmp_path_factory.mktemp("ledger"))
    return {name: harness.run_workload(name, 1, SCALE, trace=True) for name in workloads.WORKLOADS}


def value(records, workload, section, name):
    return records[workload][section][name]["value"]


def counts(record):
    """Every metric of a record that must repeat exactly for a seed."""
    out = {n: record["end_to_end"][n]["value"] for n in
           ("wire_bytes_per_sample", "failed_share", "wal_bytes_per_sample", "broker_byte_share")
           if n in record["end_to_end"]}
    out.update({n: m["value"] for n, m in record["per_layer"].items() if not TIMES.search(n)})
    return out


# ----------------------------------------------------------------------
# Smoke run: declared names, subsets, directional sanity
# ----------------------------------------------------------------------


def test_smoke_emits_exactly_the_declared_metrics(records):
    per_layer = [name for name, _unit, _better in harness.per_layer_declarations()]
    for name, record in records.items():
        assert record["failed"] == 0, record["problems"]
        assert list(record["end_to_end"]) == [*harness.END_TO_END, *harness.EXTRA_METRICS[name]]
        assert list(record["per_layer"]) == per_layer
        assert record["checked"] >= 2


def test_metric_and_workload_names_follow_the_contract():
    names = [*harness.END_TO_END, *harness.WORKLOAD_END_TO_END, *workloads.WORKLOADS]
    names += [name for name, _unit, _better in harness.per_layer_declarations()]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    assert declared["paths"] == ["benchmarks/ledger"]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]] == [
        (name, *spec) for name, spec in harness.END_TO_END.items()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == [
        tuple(d) for d in harness.per_layer_declarations()
    ]
    assert [(w["name"], w["why"]) for w in declared["workloads"]] == [
        (name, cls.why) for name, cls in workloads.WORKLOADS.items()
    ]


def test_every_layer_reports_and_times_add_up(records):
    for name, record in records.items():
        layers = record["per_layer"]
        covered = sum(layers[f"{layer}.self_ms_per_op"]["value"] for layer in spans.LAYERS)
        root = record["traced"]["root_ms_per_op"]
        unattributed = layers["trace.unattributed_share"]["value"] * root
        assert covered + unattributed == pytest.approx(root, rel=0.01), name
        assert layers["trace.overhead_share"]["value"] > -0.5


def test_directional_sanity(records):
    per_layer = lambda w, n: value(records, w, "per_layer", n)  # noqa: E731
    assert per_layer("query_cold", "datastore.cache.hit_share") == 0
    assert per_layer("query_warm", "datastore.cache.hit_share") == 1
    assert per_layer("query_cold", "rules.engine.evaluate.calls_per_op") > 0
    assert per_layer("query_warm", "rules.engine.evaluate.calls_per_op") == 0
    assert per_layer("ingest_durable", "rules.engine.evaluate.calls_per_op") == 0
    for name in records:
        appends = per_layer(name, "storage.wal.appends_per_op")
        assert (appends > 0) == (name == "ingest_durable")
    assert 0 < value(records, "fleet_mixed", "end_to_end", "broker_byte_share") < 0.05


# ----------------------------------------------------------------------
# Seeds and schedules
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", ["query_cold", "ingest_durable"])
def test_same_seed_same_schedule_and_counts(records, name):
    again = harness.run_workload(name, 1, SCALE, trace=True)
    assert again["schedule_hash"] == records[name]["schedule_hash"]
    assert counts(again) == counts(records[name])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_another_seed_another_schedule(quick, name):
    hashes = {workloads.WORKLOADS[name](seed, SCALE).schedule_hash() for seed in (1, 1, 2)}
    assert len(hashes) == 2


# ----------------------------------------------------------------------
# Recorders and span arithmetic
# ----------------------------------------------------------------------


def test_no_patch_survives(records):
    assert spans.patched_attributes() == []
    recorder = spans.Recorder()
    recorder.install()
    try:
        assert len(spans.patched_attributes()) > 40
    finally:
        recorder.uninstall()
    assert spans.patched_attributes() == []


def test_self_time_on_a_hand_built_tree():
    # op [0, 10]
    #   a [1, 7]
    #     b [2, 4]
    #     b [5, 6]
    #   c [8, 9.5]
    # op [20, 22]   (nothing under it)
    tree = [
        [spans.ROOT, -1, 0, 0.0, 10.0],
        ["a", 0, 0, 1.0, 7.0],
        ["b", 1, 0, 2.0, 4.0],
        ["b", 1, 0, 5.0, 6.0],
        ["c", 0, 0, 8.0, 9.5],
        [spans.ROOT, -1, 1, 20.0, 22.0],
    ]
    folded = spans.fold(tree)
    assert folded["layers"] == {"a": (3.0, 1), "b": (3.0, 2), "c": (1.5, 1)}
    assert folded["roots"] == 2
    assert folded["root_seconds"] == 12.0
    assert folded["unattributed_seconds"] == 4.5  # 10 - 6 - 1.5, plus 2
    assert sum(s for s, _ in folded["layers"].values()) + 4.5 == folded["root_seconds"]


# ----------------------------------------------------------------------
# compare.py and the command line
# ----------------------------------------------------------------------


def metric(rounds, better="lower", bound=0.10):
    q1, median, q3 = harness.quartiles(rounds)
    return {"value": median, "unit": "ms", "better": better, "bound": bound,
            "q1": q1, "q3": q3, "rounds": rounds}


def ledger(**metrics):
    return {"workloads": {"w": {"end_to_end": metrics}}}


def test_compare_labels():
    steady = [10.0, 10.1, 10.2, 10.3, 10.4]
    noisy = [8.0, 9.0, 10.0, 12.0, 14.0]

    def only_label(a, b):
        (row,) = compare.compare(ledger(m=a), ledger(m=b))
        return row["label"]

    assert only_label(metric(steady), metric([v * 1.05 for v in steady])) == "ok"
    assert only_label(metric(steady), metric([v * 1.2 for v in steady])) == "regressed"
    assert only_label(metric(steady), metric(noisy)) == "unresolved"
    assert only_label(metric(noisy), metric([v / 2 for v in noisy])) == "ok"
    assert only_label(metric(steady, "higher"), metric([v * 0.8 for v in steady], "higher")) == "regressed"
    assert only_label(metric([0.0], bound=0.0), metric([0.001], bound=0.0)) == "regressed"
    assert only_label(metric([0.0], bound=0.0), metric([0.0], bound=0.0)) == "ok"


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_line_ends_with_the_contract_line(tmp_path, trace, section):
    out = tmp_path / "ledger.json"
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "ingest_durable", "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--out", str(out)],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = {m["name"]: m["unit"] for m in json.load(handle)[section]}
    assert {n: m["unit"] for n, m in last["metrics"].items()} == declared
    for name in declared:
        assert name in done.stdout  # printed by name, with its unit
    with open(out, encoding="utf-8") as handle:
        record = json.load(handle)
    assert {"seed", "scale", "python", "numpy", "nproc", "cpu_model", "loadavg_at_start"} <= set(record["run"])
    assert record["workloads"]["ingest_durable"]["schedule_hash"]
    assert not [p for p in os.listdir(tmp_path) if p.startswith(".ledger-")]
