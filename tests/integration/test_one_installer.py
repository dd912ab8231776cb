"""Tier-1 guard: one installer, one snapshot writer, one journal sync-class
site, no wholesale drop, and no store state nobody classified.

``repro.storage.records.apply`` is the only code that installs a log
record into a live data store service, ``write_snapshot`` the only code
that writes a snapshot file (no table persists itself), ``Durability.
journal`` the only WAL append that picks a sync class, and no code drops
cached decisions by event: every input of one is an epoch or its own
value in the cache key.  A new log-fed path (read-serving replicas,
provenance stamps, …) that hand-rolls any of these would be a second
idea of when a rule set wins, what is force-synced, or when a cached
decision dies — so it fails ``pytest`` here, not a review.

Every attribute ``DataStoreService.__init__`` assigns is classified in
:data:`INVENTORY`: state a restart, a replica and a migration must not
lose has to be *record-backed*.  A consumer's groups once lived in an
unclassified, unjournaled dict, and a group-scoped deny did not survive a
restart; an attribute added without a line here fails the build.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

INSTALLER = "storage/records.py"
SNAPSHOT_WRITER = ("storage/durability.py", "write_snapshot")
JOURNAL = ("storage/durability.py", "journal")

#: Files that index a ``roles``/``places``/``memberships``/``credentials``
#: attribute of something that is not a data store service.
NOT_A_STORE = {"baselines/centralized.py"}

#: Dict methods that change a principal's role, groups or credential, or
#: a contributor's places, without an index.
MUTATORS = ("pop", "popitem", "update", "clear", "setdefault")


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
                if isinstance(target, ast.Subscript) and _attr(
                    target.value, "places", "roles", "memberships", "credentials"
                ):
                    yield node.lineno, f"assigns .{target.value.attr}[...]"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            if func.attr in ("restore_segment", "remove_segment"):
                yield node.lineno, f"calls .{func.attr}()"
            elif func.attr == "restore" and _attr(func.value, "rules", "audit"):
                yield node.lineno, f"calls .{func.value.attr}.restore()"
            elif func.attr == "forget" and _attr(func.value, "rules"):
                yield node.lineno, "calls .rules.forget()"
            elif func.attr in MUTATORS and _attr(
                func.value, "places", "roles", "memberships", "credentials"
            ):
                yield node.lineno, f"calls .{func.value.attr}.{func.attr}()"


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
    tables = ("places", "roles", "memberships", "credentials")
    assert seen == {f"assigns .{table}[...]" for table in tables} | {
        "calls .rules.restore()",
        "calls .audit.restore()",
        "calls .restore_segment()",
        "calls .remove_segment()",
        "calls .rules.forget()",
    } | {f"calls .{table}.pop()" for table in tables}


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


def _called(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def test_no_wholesale_drop_and_no_content_hash_in_the_key():
    """No ``invalidate*`` is defined or called, and the release cache's key
    reads the contributor's data epoch, never the content fingerprint (a
    hash over every stored sample)."""
    offenders, key_calls = [], []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("invalidate"):
                    offenders.append(f"{name}:{node.lineno} defines {node.name}")
                if node.name == "_cache_key":
                    key_calls += [_called(c) for c in ast.walk(node) if isinstance(c, ast.Call)]
            elif isinstance(node, ast.Call) and _called(node).startswith("invalidate"):
                offenders.append(f"{name}:{node.lineno} calls {_called(node)}")
    assert offenders == []
    assert "data_epoch" in key_calls and "content_fingerprint" not in key_calls


RECORD_BACKED, DERIVED, EPHEMERAL = "record-backed", "derived", "ephemeral by decision"

#: What each attribute ``DataStoreService.__init__`` assigns is, and why.
INVENTORY = {
    "host": (EPHEMERAL, "configuration: the constructor is given it at every start"),
    "network": (EPHEMERAL, "configuration: the process's transport"),
    "institution": (EPHEMERAL, "configuration: given at every start"),
    "directory": (EPHEMERAL, "configuration: where the records live"),
    "enforce_closure": (EPHEMERAL, "configuration: given at every start"),
    "role": (EPHEMERAL, "the broker re-asserts it: promote, demote, rejoin"),
    "epoch": (EPHEMERAL, "the fencing token the broker re-asserts with the role"),
    "replication": (EPHEMERAL, "the shipper, built when the broker links replicas here"),
    "_applier": (EPHEMERAL, "the replica side of shipping, made on first frame"),
    "store": (RECORD_BACKED, "segment and segment_delete records"),
    "rules": (RECORD_BACKED, "rules records"),
    "keys": (EPHEMERAL, "keys rotate at restart; owners re-key, the broker re-enrolls"),
    "_salts": (EPHEMERAL, "draws salts; a salt lives in the role record it salts"),
    "audit": (RECORD_BACKED, "audit records"),
    "roles": (RECORD_BACKED, "role records; a moved contributor's is her fence"),
    "places": (RECORD_BACKED, "places records"),
    "memberships": (RECORD_BACKED, "the Groups of a consumer's role record"),
    "credentials": (RECORD_BACKED, "the Salt and PasswordHash of a contributor's role record"),
    "_registered_at": (EPHEMERAL, "this boot's new role rows' LSNs; a restart resyncs its replicas"),
    "release_guards": (EPHEMERAL, "observers a harness attaches; hold no state"),
    "_push_to": (EPHEMERAL, "the client rule changes are pushed to the broker with, built at pairing"),
    "fail_closed": (DERIVED, "flags a journaled empty rule set; losing it keeps the deny"),
    "release_cache": (DERIVED, "cached releases, keyed by every input"),
    "_probed": (EPHEMERAL, "the admission probe's parse, taken by the same request's handler"),
    "compiled_rules": (DERIVED, "compiled rule artifacts, keyed by the rules epoch"),
    "durability": (EPHEMERAL, "the handle on the directory, reopened at start"),
    "recovery_report": (DERIVED, "what the last open found on disk"),
    "router": (DERIVED, "the routes the _route declarations mount"),
    "admission": (DERIVED, "the overload gate over the router, from configuration"),
}


def _init_assignments():
    tree = dict(_modules())["server/datastore_service.py"]
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "DataStoreService"]
    (init,) = [n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "__init__"]
    return {
        leaf.attr
        for node in ast.walk(init)
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        for leaf in ast.walk(target)  # ``self.a, self.b = ...`` names two
        if isinstance(leaf, ast.Attribute) and getattr(leaf.value, "id", "") == "self"
    }


def test_every_store_attribute_is_classified():
    assert _init_assignments() == set(INVENTORY), (
        "classify each DataStoreService attribute in INVENTORY"
    )
    assert {kind for kind, _ in INVENTORY.values()} == {RECORD_BACKED, DERIVED, EPHEMERAL}
    assert all(reason for _, reason in INVENTORY.values())


def test_record_backed_state_is_the_installer_s():
    """A record-backed attribute is one the one installer writes."""
    installer = (SRC / INSTALLER).read_text(encoding="utf-8")
    for name, (kind, _) in INVENTORY.items():
        if kind == RECORD_BACKED:
            assert f"service.{name}" in installer, name
