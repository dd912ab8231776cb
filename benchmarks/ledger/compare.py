"""Compare two ledger files: ``python3 benchmarks/ledger/compare.py A.json B.json``.

One row per (workload, end-to-end metric) that both files hold: both
medians with their quartiles, the delta, the bound and a label.

``ok``
    B's median is no worse than A's by more than the bound.
``regressed``
    It is worse by more than the bound (for ``failed_share``, whose bound
    is 0: any increase).
``unresolved``
    The per-round spread of either side (distance between the quartiles
    as a share of the median) is wider than the bound, so the medians
    cannot settle it — unless every round of B beats every round of A,
    which is ``ok``.

Exits non-zero on any ``regressed`` row.
"""

from __future__ import annotations

import json
import sys


def spread(metric: dict) -> float:
    """Distance between the quartiles as a share of the median."""
    return abs(metric["q3"] - metric["q1"]) / abs(metric["value"]) if metric["value"] else 0.0


def worse_by(a: float, b: float, better: str) -> float:
    """By what share of ``a`` is ``b`` worse (negative: better)."""
    delta = b - a if better == "lower" else a - b
    if a:
        return delta / abs(a)
    return 0.0 if not delta else float("inf") if delta > 0 else float("-inf")


def label(a: dict, b: dict) -> str:
    bound, better = a["bound"], a["better"]
    if max(spread(a), spread(b)) > bound:
        if better == "lower":
            b_wins = max(b["rounds"]) < min(a["rounds"])
        else:
            b_wins = min(b["rounds"]) > max(a["rounds"])
        return "ok" if b_wins else "unresolved"
    return "regressed" if worse_by(a["value"], b["value"], better) > bound else "ok"


def compare(ledger_a: dict, ledger_b: dict) -> list:
    """Rows for every (workload, metric) the two ledgers share."""
    rows = []
    for workload, record_a in ledger_a["workloads"].items():
        record_b = ledger_b["workloads"].get(workload)
        if record_b is None:
            continue
        for name, a in record_a["end_to_end"].items():
            b = record_b["end_to_end"].get(name)
            if b is None:
                continue
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": a["unit"],
                    "a": a["value"],
                    "a_q1": a["q1"],
                    "a_q3": a["q3"],
                    "b": b["value"],
                    "b_q1": b["q1"],
                    "b_q3": b["q3"],
                    "worse_by": worse_by(a["value"], b["value"], a["better"]),
                    "bound": a["bound"],
                    "label": label(a, b),
                }
            )
    return rows


def render(rows: list) -> str:
    head = (
        f"{'workload':<15} {'metric':<24} {'A median [q1, q3]':<38} "
        f"{'B median [q1, q3]':<38} {'worse by':>9} {'bound':>6}  label"
    )
    lines = [head, "-" * len(head)]
    for r in rows:
        a = f"{r['a']:.6g} [{r['a_q1']:.6g}, {r['a_q3']:.6g}] {r['unit']}"
        b = f"{r['b']:.6g} [{r['b_q1']:.6g}, {r['b_q3']:.6g}] {r['unit']}"
        lines.append(
            f"{r['workload']:<15} {r['metric']:<24} {a:<38} {b:<38} "
            f"{r['worse_by']:>+9.2%} {r['bound']:>6.0%}  {r['label']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    ledgers = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            ledgers.append(json.load(handle))
    rows = compare(*ledgers)
    print(render(rows))
    return 1 if any(row["label"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
