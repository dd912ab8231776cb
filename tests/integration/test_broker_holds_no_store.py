"""Tier-1 guard: the broker commands a store only over the network.

The paper's broker (§5.2) holds every contributor's identity and the
address of their remote data store; a store is a host name and the key it
issued the broker.  Nothing under ``broker/`` or in
``server/broker_service.py`` imports a ``DataStoreService``, calls or reads
a member only a store service has, or keeps an attribute not classified in
:data:`HELD`.  A broker that held store handles once linked replicas by
calling a killed primary's methods, which resynced a replica after the
kill (finding (g)); a second path like that fails ``pytest`` here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

STORE_MODULE = "server/datastore_service.py"
GUARDED = sorted(
    path.relative_to(SRC).as_posix() for path in (SRC / "broker").glob("*.py")
) + ["server/broker_service.py"]

#: What each attribute of the broker's control-plane objects holds.
HELD = {
    "ReplicaSet": {
        "name": "the set's name",
        "primary": "the primary's host name",
        "replicas": "the replicas' host names",
        "epoch": "the set's store epoch",
        "missed": "host name -> consecutive missed probes",
        "demoted": "fenced ex-primaries' host names",
        "failovers": "a count",
        "alone": "the epoch of the last primary promoted with no replica",
    },
    "FailoverManager": {
        "broker": "the broker service it runs in",
        "miss_threshold": "configuration",
        "sets": "set name -> ReplicaSet",
        "_probe": "the broker's probe client",
        "events": "promotion and rejoin audit records",
        "obs": "the telemetry hub",
        "_c_heartbeats": "a counter",
        "_c_failovers": "a counter",
        "_c_noquorum": "a counter",
    },
    "BrokerService": {
        "host": "its own host name",
        "network": "its transport",
        "registry": "contributor -> store host name, rules mirror",
        "studies": "study registry",
        "directory": "the routing table, over the registry",
        "sync": "the rules-mirror sync manager",
        "search": "contributor search, over the registry",
        "keys": "keys it issued",
        "accounts": "consumer accounts",
        "escrow": "consumers' keys at store host names",
        "client": "its outbound client",
        "store_keys": "store host name -> the key that store issued it",
        "failover": "the FailoverManager",
        "rebalancer": "the shard migration coordinator",
        "fleet": "the fleet telemetry scraper",
        "saved_lists": "consumers' saved contributor lists",
        "router": "its routes",
        "admission": "its overload gate",
    },
}


def _parse(name):
    return ast.parse((SRC / name).read_text(encoding="utf-8"))


def _trees():
    return {name: _parse(name) for name in GUARDED}


def _members(tree, classes=None, *, methods=True) -> set:
    """Names the classes of ``tree`` (or only ``classes``) define: methods
    (unless not ``methods``), class-level names and every ``self.<name>``
    a method assigns."""
    names = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef) or (classes and cls.name not in classes):
            continue
        for item in cls.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and methods:
                names.add(item.name)
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                names.add(item.target.id)
        names |= {
            node.attr
            for node in ast.walk(cls)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and getattr(node.value, "id", "") == "self"
        }
    return names


def _store_only() -> set:
    """Members a ``DataStoreService`` defines that no other class does."""
    store = _members(_parse(STORE_MODULE), {"DataStoreService"})
    others = set()
    for path in SRC.rglob("*.py"):
        name = path.relative_to(SRC).as_posix()
        if name != STORE_MODULE:
            others |= _members(_parse(name))
    return {member for member in store - others if not member.startswith("__")}


def test_the_broker_imports_no_store_service():
    offenders = [
        f"{name}:{node.lineno}"
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom) and (
            node.module == "repro.server.datastore_service"
            or any(alias.name == "DataStoreService" for alias in node.names)
        )) or (isinstance(node, ast.Import) and any(
            alias.name == "repro.server.datastore_service" for alias in node.names
        ))
    ]
    assert offenders == []


def test_the_broker_calls_and_reads_no_store_service_member():
    only = _store_only()
    offenders = [
        f"{name}:{node.lineno} .{node.attr}"
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in only
    ]
    assert offenders == [], "command a store over its routes: " + "; ".join(offenders)


def test_the_guard_sees_what_it_guards():
    """The members the broker once called directly are store-only names."""
    assert {"pair_broker", "pair_primary", "enable_replication", "demote", "replication"} <= (
        _store_only()
    )


def test_the_broker_holds_host_names_keys_and_epochs():
    trees = _trees()
    held = {
        cls: _members(trees[module], {cls}, methods=False)
        for module, classes in (
            ("broker/failover.py", ("ReplicaSet", "FailoverManager")),
            ("server/broker_service.py", ("BrokerService",)),
        )
        for cls in classes
    }
    assert held == {cls: set(attributes) for cls, attributes in HELD.items()}, (
        "classify what each new attribute holds in HELD; a store is a host name and a key"
    )
