"""Tier-1 guard: a store handler does not check who is calling — its declaration does.

In ``server/datastore_service.py`` identity is established by the
``_caller_*`` preludes a ``@_route(...)`` declaration names, and a read is
audited and costed by ``_regulated_read``.  A handler that authenticates,
checks a role, reads the key or names the ``Contributor`` for itself is a
second place the order of checks is written (and a place it can be
forgotten), so it fails ``pytest`` here.  The dynamic twin is
``tests/server/test_route_access.py``.
"""

import ast
from pathlib import Path

MODULE = Path(__file__).resolve().parents[2] / "src/repro/server/datastore_service.py"

#: Calls that establish identity; only preludes make them.
IDENTITY_CALLS = {
    "_authenticate",
    "authenticate",
    "_require_contributor",
    "_require_broker",
    "_require_primary_peer",
}

#: The admission probe classifies a request before its handler runs, so
#: it reads the key and the name itself (and raises nothing).
PROBE = "_cache_would_hit"


def _functions(tree):
    return [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]


def _identity_checks(function):
    """What ``function``'s body does that only a caller prelude may."""
    for node in ast.walk(function):
        if isinstance(node, ast.Attribute) and node.attr == "api_key":
            yield f"{function.name}:{node.lineno} reads .api_key"
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        name = node.func.attr
        if name in IDENTITY_CALLS or name.startswith("_caller_"):
            yield f"{function.name}:{node.lineno} calls {name}()"
        elif name == "get" and node.args and getattr(node.args[0], "value", None) == "Contributor":
            yield f"{function.name}:{node.lineno} reads the Contributor name"


def _callers_of(tree, owner, method):
    """Names of the functions that call ``<x>.<owner>.<method>(...)``."""
    return sorted(
        function.name
        for function in _functions(tree)
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == method
        and getattr(node.func.value, "attr", getattr(node.func.value, "id", None)) == owner
    )


def _handlers(tree):
    return [function for function in _functions(tree) if function.name.startswith("_h_")]


def _tree():
    return ast.parse(MODULE.read_text(encoding="utf-8"))


def test_no_handler_checks_identity_for_itself():
    offenders = [what for handler in _handlers(_tree()) for what in _identity_checks(handler)]
    assert offenders == [], "declare the caller with @_route instead: " + "; ".join(offenders)


def test_every_handler_is_declared():
    undeclared = [
        handler.name
        for handler in _handlers(_tree())
        if not any(
            isinstance(dec, ast.Call) and getattr(dec.func, "id", None) == "_route"
            for dec in handler.decorator_list
        )
    ]
    assert undeclared == []


def test_the_key_is_read_in_two_places():
    readers = sorted(
        function.name
        for function in _functions(_tree())
        if any("api_key" in what for what in _identity_checks(function))
    )
    assert readers == sorted(["_authenticate", PROBE])


def test_one_place_audits_and_costs_a_read():
    tree = _tree()
    assert _callers_of(tree, "audit", "record_access") == ["_h_delete", "_regulated_read"]
    assert _callers_of(tree, "costs", "finish") == ["_regulated_read"]


#: Two handlers of the parent commit (84edff4): ``_h_rules_add`` as typed,
#: ``_h_aggregate`` cut down to its prelude and its read tail.
PARENT = '''
class DataStoreService:
    def _h_rules_add(self, request: Request) -> dict:
        self._require_writable()
        contributor = str(request.body.get("Contributor", ""))
        self._require_contributor(request, contributor)
        self._require_resident(contributor)
        rule = rule_from_json(request.body.get("Rule", {}))
        self.rules.add(contributor, rule)
        self._replication_barrier()
        return {"RuleId": rule.rule_id, "Version": self.rules.version_of(contributor)}

    def _h_aggregate(self, request: Request) -> dict:
        self._require_writable()  # replicas serve no reads either
        principal = self._authenticate(request)
        contributor = str(request.body.get("Contributor", ""))
        self._require_resident(contributor)
        costs = self.network.obs.costs
        token = costs.start(self.host)
        self.audit.record_access(principal=principal, contributor=contributor)
        costs.finish(token, endpoint="/api/aggregate")
        return {"Rows": []}
'''


def test_the_guard_trips_on_the_parents_handlers():
    """The walk is not vacuous: both old preludes and the old read tail trip it."""
    tree = ast.parse(PARENT)
    tripped = {what.split(" ", 1)[1] for h in _handlers(tree) for what in _identity_checks(h)}
    assert tripped == {
        "calls _require_contributor()",
        "calls _authenticate()",
        "reads the Contributor name",
    }
    assert {h.name for h in _handlers(tree) if list(_identity_checks(h))} == {
        "_h_rules_add",
        "_h_aggregate",
    }
    assert _callers_of(tree, "audit", "record_access") == ["_h_aggregate"]
    assert _callers_of(tree, "costs", "finish") == ["_h_aggregate"]
