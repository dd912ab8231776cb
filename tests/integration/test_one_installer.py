"""Tier-1 guard: one installer, one snapshot writer, one journal sync-class
site, one wholesale drop.

``repro.storage.records.apply`` is the only code that installs a log
record into a live data store service, ``write_snapshot`` the only code
that writes a snapshot file (no table persists itself), ``Durability.
journal`` the only WAL append that picks a sync class, and recovery the
only caller of ``invalidate_decisions``.  A new log-fed path (read-serving replicas,
provenance stamps, …) that hand-rolls any of these would be a second
idea of when a rule set wins, what is force-synced, or when a cached
decision dies — so it fails ``pytest`` here, not a review.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

INSTALLER = "storage/records.py"
SNAPSHOT_WRITER = ("storage/durability.py", "write_snapshot")
JOURNAL = ("storage/durability.py", "journal")
WHOLESALE_DROP = "storage/recovery.py"

#: Files that index a ``roles``/``places`` attribute of something that is
#: not a data store service.
NOT_A_STORE = {"baselines/centralized.py"}


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text(encoding="utf-8"))


def _attr(node, *names):
    return isinstance(node, ast.Attribute) and node.attr in names


def _state_installs(tree):
    """Line numbers of statements only the installer may contain."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript) and _attr(target.value, "places", "roles"):
                    yield node.lineno, f"assigns .{target.value.attr}[...]"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            if func.attr in ("restore_segment", "remove_segment"):
                yield node.lineno, f"calls .{func.attr}()"
            elif func.attr == "restore" and _attr(func.value, "rules", "audit"):
                yield node.lineno, f"calls .{func.value.attr}.restore()"


def test_only_the_installer_assigns_log_fed_state():
    offenders = [
        f"{name}:{lineno} {what}"
        for name, tree in _modules()
        if name != INSTALLER and name not in NOT_A_STORE
        for lineno, what in _state_installs(tree)
    ]
    assert offenders == [], (
        "install log-fed state through repro.storage.records.apply: " + "; ".join(offenders)
    )


def test_the_guard_sees_what_it_guards():
    """The walk is not vacuous: the installer itself trips every pattern."""
    installer = dict(_modules())[INSTALLER]
    seen = {what for _, what in _state_installs(installer)}
    assert seen == {
        "assigns .places[...]",
        "assigns .roles[...]",
        "calls .rules.restore()",
        "calls .audit.restore()",
        "calls .restore_segment()",
        "calls .remove_segment()",
    }


def _functions_with(matches):
    """``(module, function)`` of every function holding a call ``matches`` accepts."""
    return [
        (name, function.name)
        for name, tree in _modules()
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and matches(node)
    ]


def test_one_function_picks_the_sync_class():
    assert _functions_with(
        lambda call: any(keyword.arg == "force_sync" for keyword in call.keywords)
    ) == [JOURNAL]


def test_one_function_writes_snapshot_files():
    assert _functions_with(
        lambda call: isinstance(call.func, ast.Name) and call.func.id == "atomic_write_jsonl"
    ) == [SNAPSHOT_WRITER]


def test_no_table_persists_itself():
    """A second persistence engine would start as one of these."""
    offenders = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "Database":
                offenders.append(f"{name}:{node.lineno} defines Database")
            elif isinstance(node, ast.Call) and _attr(node.func, "save", "load"):
                receiver = node.func.value
                if _attr(receiver, "store", "db") or getattr(receiver, "id", "") in ("store", "db"):
                    offenders.append(f"{name}:{node.lineno} calls .{node.func.attr}() on a store")
    assert offenders == []


def test_recovery_is_the_only_wholesale_drop():
    callers = [
        name
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _attr(node.func, "invalidate_decisions")
    ]
    assert callers == [WHOLESALE_DROP]
