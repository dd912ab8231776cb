"""Perf ledger: the one command that runs the benchmark.

Two ways in, one code path per workload:

``python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1``
    Runs one workload in this process and ends with one JSON line holding
    ``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
    metrics of ``BENCHMARK.json`` with ``--trace 0``, the per-layer metrics
    with ``--trace 1``.

``python3 benchmarks/ledger/run.py [--seed N] [--scale F] [--sets K] [--out PATH]``
    Runs all four workloads, one child process each, and writes the run
    record (environment, schedule hashes, every metric with its quartiles).
    ``--sets 2`` runs the suite twice and applies ``compare.py`` to the
    pair: the self-agreement check.

Either way every metric is printed by name with its unit, and the exit
code is non-zero if any op failed or any output check found a problem.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
# The program under test is imported from the checkout this file sits in.
sys.path[:0] = [HERE, os.path.join(HERE, os.pardir, os.pardir, "src")]

import numpy  # noqa: E402

import compare  # noqa: E402
import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def environment() -> dict:
    """Where and on what the numbers were taken."""
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_at_start": list(os.getloadavg()),
    }


def print_record(record: dict) -> None:
    """Every metric of one workload by name, with unit and spread."""
    print(f"== {record['workload']}  seed={record['seed']} scale={record['scale']:g} "
          f"schedule={record['schedule_hash']}  {harness.ROUNDS}x{record['ops_per_round']} ops, "
          f"{record['checked']} output checks, {record['failed']} failed")
    for name, m in record["end_to_end"].items():
        notes = f"  raw={m['raw']:.6g}" if "raw" in m else ""
        if len(m["rounds"]) > 1:
            notes += f"  q1={m['q1']:.6g} q3={m['q3']:.6g} n={len(m['rounds'])}"
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']:<6}{notes}")
    for name, m in record.get("per_layer", {}).items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    for problem in record["problems"]:
        print(f"  PROBLEM {problem}")


def contract_line(record: dict, trace: bool) -> str:
    """The last line of a single-workload run."""
    if trace:
        source = record["per_layer"]
    else:
        source = {name: record["end_to_end"][name] for name in harness.END_TO_END}
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {n: {"value": m["value"], "unit": m["unit"]} for n, m in source.items()},
        }
    )


def write_json(path: str, obj: dict) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, indent=1)


def run_record(args) -> dict:
    """What was asked for, and where and on what the numbers were taken."""
    scale = args.scale or (None if args.seconds else 1.0)
    return {"seed": args.seed, "scale": scale, "seconds": args.seconds, **environment()}


def run_suite(args) -> dict:
    """All four workloads, one child process each; returns the ledger."""
    ledger = {"run": run_record(args), "workloads": {}}
    run = ledger["run"]
    size = ["--seconds", repr(run["seconds"])] if run["seconds"] else ["--scale", repr(run["scale"])]
    with tempfile.TemporaryDirectory(prefix=".ledger-", dir=os.getcwd()) as tmp:
        for name in WORKLOADS:
            out = os.path.join(tmp, f"{name}.json")
            subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), *size, "--trace", str(args.trace), "--out", out],
                check=False,
            )
            # A child that died before writing its record fails the suite.
            with open(out, encoding="utf-8") as handle:
                ledger["workloads"][name] = json.load(handle)["workloads"][name]
    return ledger


def positive(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), help="run only this one, in-process")
    parser.add_argument("--seed", type=int, default=1)
    size = parser.add_mutually_exclusive_group()
    size.add_argument("--scale", type=positive, help="multiplies every per-round op count (default 1)")
    size.add_argument("--seconds", type=positive,
                      help="timed-phase length: each workload runs at seconds / its scale_1_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1 adds the traced round and the per-layer metrics")
    parser.add_argument("--sets", type=int, default=1, help="run the suite this many times")
    parser.add_argument("--out", help="write the run record here (set K>1 gets a .setK suffix)")
    args = parser.parse_args(argv)

    if args.workload:
        run = run_record(args)
        scale = args.scale or 1.0
        if args.seconds:
            scale = args.seconds / WORKLOADS[args.workload].scale_1_seconds
        record = harness.run_workload(args.workload, args.seed, scale, bool(args.trace))
        print_record(record)
        if args.out:
            write_json(args.out, {"run": run, "workloads": {args.workload: record}})
        print(contract_line(record, bool(args.trace)))
        return 1 if record["failed"] else 0

    ledgers = []
    for index in range(args.sets):
        ledger = run_suite(args)
        ledgers.append(ledger)
        if args.out:
            write_json(args.out if index == 0 else f"{args.out}.set{index + 1}", ledger)
    failed = sum(r["failed"] for ledger in ledgers for r in ledger["workloads"].values())
    regressed = 0
    for later in ledgers[1:]:
        rows = compare.compare(ledgers[0], later)
        print(compare.render(rows))
        regressed += sum(row["label"] == "regressed" for row in rows)
    print(f"ledger: {len(ledgers)} set(s), {failed} failed op(s) or check(s), {regressed} regressed row(s)")
    return 1 if failed or regressed else 0


if __name__ == "__main__":
    sys.exit(main())
