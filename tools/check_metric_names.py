#!/usr/bin/env python
"""Metric-naming lint for every instrument created under ``src/repro/``.

Telemetry names are API: dashboards, the fleet aggregator, and the C11/C15
benchmarks all key on them, so drift (``_sec`` vs ``_seconds``, a counter
without ``_total``) is a silent breakage.  This gate walks the source AST
for ``.counter(...)`` / ``.gauge(...)`` / ``.histogram(...)`` calls whose
first argument is a string literal and enforces:

* names are ``snake_case`` (``^[a-z][a-z0-9_]*$``);
* counters end in ``_total``; gauges and histograms never do;
* histograms end in a canonical unit suffix (``_us``, ``_ms``,
  ``_seconds``, ``_bytes``, ``_frames``, ``_count``) — a histogram without
  a unit is unreadable on any dashboard;
* non-canonical unit spellings (``_sec``, ``_secs``, ``_millis``,
  ``_msec``, ``_usec``, ``_kb``, ``_mb``) are rejected everywhere;
* label keys pass the redaction boundary's deny-list
  (:func:`repro.obs.redaction.check_label` semantics), and literal label
  values pass :func:`check_label` outright — so a label that would raise
  at runtime fails CI at lint time instead.

Usage::

    python tools/check_metric_names.py          # gate (exit 1 on failure)
    python tools/check_metric_names.py --list   # print every instrument seen
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src", "repro")

sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.exceptions import SensorSafeError  # noqa: E402
from repro.obs.redaction import check_label  # noqa: E402

_METHODS = ("counter", "gauge", "histogram")
#: Thin wrappers over the registry factories (``repro.obs.slo`` uses
#: these); the lint sees through them so wrapped names are still gated.
_WRAPPERS = {"_hist": "histogram", "_ctr": "counter"}
_SNAKE_CASE = re.compile(r"^[a-z][a-z0-9_]*$")
_HISTOGRAM_UNITS = ("_us", "_ms", "_seconds", "_bytes", "_frames", "_count")
_BAD_UNIT_SUFFIXES = ("_sec", "_secs", "_millis", "_msec", "_usec", "_kb", "_mb")
#: Keyword arguments on instrument factories that are not metric labels.
_NON_LABEL_KWARGS = {"callback", "buckets"}
#: Metric families benchmarks and dashboards key on: overload control's
#: (C16), the release cache's (C11 and the perf ledger's hit share and
#: evictions per op) and a store's replication position (the LSN its
#: status route answers, -1 when unknown), so a rename (or an accidental
#: deletion) of any of them is a gate failure, not a silent drift.
_REQUIRED_NAMES = (
    "admission_requests_total",
    "admission_served_total",
    "admission_shed_total",
    "admission_would_shed_total",
    "admission_queue_ms",
    "retry_budget_exhausted_total",
    "cache_hits_total",
    "cache_misses_total",
    "cache_evictions_total",
    "cache_bytes",
    "cache_entries",
    "replication_applied_lsn",
)


def iter_source_files(root: str):
    """Yield every ``.py`` file under ``root``, sorted for determinism."""
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def _check_name(kind: str, name: str) -> list:
    """Naming-rule violations for one instrument name (empty when clean)."""
    problems = []
    if not _SNAKE_CASE.match(name):
        problems.append(f"{kind} {name!r} is not snake_case")
    if any(name.endswith(suffix) for suffix in _BAD_UNIT_SUFFIXES):
        problems.append(
            f"{kind} {name!r} uses a non-canonical unit suffix; "
            "use _us/_ms/_seconds/_bytes"
        )
    if kind == "counter":
        if not name.endswith("_total"):
            problems.append(f"counter {name!r} must end in '_total'")
    elif name.endswith("_total"):
        problems.append(f"{kind} {name!r} must not end in '_total' (counters only)")
    if kind == "histogram" and not name.endswith(_HISTOGRAM_UNITS):
        problems.append(
            f"histogram {name!r} lacks a unit suffix "
            f"({'/'.join(_HISTOGRAM_UNITS)})"
        )
    return problems


def _check_labels(call: ast.Call) -> list:
    """Label-key (and literal label-value) violations for one call."""
    problems = []
    for keyword in call.keywords:
        if keyword.arg is None or keyword.arg in _NON_LABEL_KWARGS:
            continue
        value = keyword.value
        probe = (
            value.value
            if isinstance(value, ast.Constant)
            else "literal"  # dynamic value: still exercises the key deny-list
        )
        try:
            check_label(keyword.arg, probe)
        except SensorSafeError as exc:
            problems.append(f"label {keyword.arg!r}: {exc}")
    return problems


def scan_file(path: str):
    """Yield ``(lineno, kind, name, problems)`` for each instrument call."""
    with open(path, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        if func.attr in _METHODS:
            kind = func.attr
        elif func.attr in _WRAPPERS:
            kind = _WRAPPERS[func.attr]
        else:
            continue
        if not node.args or not isinstance(node.args[0], ast.Constant):
            continue
        name = node.args[0].value
        if not isinstance(name, str):
            continue
        problems = _check_name(kind, name) + _check_labels(node)
        yield node.lineno, kind, name, problems


def main(argv=None) -> int:
    """Run the gate; ``--list`` prints every instrument discovered."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true", help="print every instrument")
    options = parser.parse_args(argv)

    failures = []
    seen = 0
    names_seen = set()
    for path in iter_source_files(SRC_ROOT):
        rel = os.path.relpath(path, REPO_ROOT)
        for lineno, kind, name, problems in scan_file(path):
            seen += 1
            names_seen.add(name)
            if options.list:
                print(f"{rel}:{lineno}: {kind} {name}")
            for problem in problems:
                failures.append(f"{rel}:{lineno}: {problem}")

    for required in _REQUIRED_NAMES:
        if required not in names_seen:
            failures.append(
                f"required metric {required!r} is not created anywhere "
                "under src/repro/ (renamed or deleted?)"
            )

    if failures:
        print(f"{len(failures)} metric-naming violation(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"metric-name lint: {seen} instrument call site(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
