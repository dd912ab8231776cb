"""Tier-1 guard: a handler does not check who is calling — its declaration does.

In ``server/datastore_service.py`` and ``server/broker_service.py``
identity is established by the ``_caller_*`` preludes a ``@route(...)``
declaration names, and a store read is audited and costed by
``_regulated_read``.  A handler that authenticates, checks a role, reads
the key or (at a store) names the ``Contributor`` for itself is a second
place the order of checks is written (and a place it can be forgotten),
so it fails ``pytest`` here.  A web page in ``server/webui.py`` names the
declared handler it renders and answers through it, never by reading the
service's state itself.  The dynamic twins are
``tests/server/test_route_access.py`` and
``tests/server/test_broker_route_access.py``.
"""

import ast
from pathlib import Path

SERVER = Path(__file__).resolve().parents[2] / "src/repro/server"
MODULE = SERVER / "datastore_service.py"
BROKER = SERVER / "broker_service.py"
WEBUI = SERVER / "webui.py"

#: Calls that establish identity; only preludes make them.
IDENTITY_CALLS = {
    "_authenticate",
    "authenticate",
    "_require_contributor",
    "_require_broker",
    "_require_primary_peer",
    "_require_consumer",
    "_require_store",
}

#: What a page must get from its handler's reply, never from the service.
SERVICE_STATE = {
    "escrow", "registry", "search", "accounts", "client",
    "store", "rules", "audit", "places", "directory",
}

#: The admission probe classifies a request before its handler runs, so
#: it reads the key and the name itself (and raises nothing).
PROBE = "_cache_would_hit"


def _functions(tree):
    return [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]


def _identity_checks(function, contributor=True):
    """What ``function``'s body does that only a caller prelude may.

    ``contributor=False`` for the broker, whose handlers name a
    ``Contributor`` as the subject of a lookup, never as the caller.
    """
    for node in ast.walk(function):
        if isinstance(node, ast.Attribute) and node.attr == "api_key":
            yield f"{function.name}:{node.lineno} reads .api_key"
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        name = node.func.attr
        if name in IDENTITY_CALLS or name.startswith("_caller_"):
            yield f"{function.name}:{node.lineno} calls {name}()"
        elif (
            contributor
            and name == "get"
            and node.args
            and getattr(node.args[0], "value", None) == "Contributor"
        ):
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


def _tree(module=MODULE):
    return ast.parse(module.read_text(encoding="utf-8"))


def _declared_by(function, decorator):
    """The ``@decorator(...)`` call on ``function``, if it carries one."""
    for dec in function.decorator_list:
        if isinstance(dec, ast.Call) and getattr(dec.func, "id", None) == decorator:
            return dec
    return None


def test_no_handler_checks_identity_for_itself():
    offenders = [
        what
        for module, contributor in ((MODULE, True), (BROKER, False))
        for handler in _handlers(_tree(module))
        for what in _identity_checks(handler, contributor)
    ]
    assert offenders == [], "declare the caller with @route instead: " + "; ".join(offenders)


def test_every_handler_is_declared():
    undeclared = [
        f"{module.name}:{handler.name}"
        for module in (MODULE, BROKER)
        for handler in _handlers(_tree(module))
        if _declared_by(handler, "route") is None
    ]
    assert undeclared == []


def test_the_key_is_read_in_two_places():
    readers = sorted(
        function.name
        for function in _functions(_tree())
        if any("api_key" in what for what in _identity_checks(function))
    )
    assert readers == sorted(["_authenticate", PROBE])


def test_only_the_broker_s_preludes_establish_identity():
    checkers = sorted(
        function.name
        for function in _functions(_tree(BROKER))
        if list(_identity_checks(function, contributor=False))
    )
    assert checkers == ["_authenticate", "_caller_consumer", "_caller_key", "_caller_store"]


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


#: Two broker handlers of the parent commit (c82ea56), as typed.
BROKER_PARENT = '''
class BrokerService:
    def _h_keys(self, request: Request) -> dict:
        consumer = self._require_consumer(request)
        return {"Keys": self.escrow.ring_of(consumer)}

    def _h_sync(self, request: Request) -> dict:
        store_host = self._require_store(request)
        profile = dict(request.body.get("Profile", {}))
        return {"Applied": self.sync.apply_profile(profile)}
'''


def test_the_guard_trips_on_the_broker_parents_handlers():
    tree = ast.parse(BROKER_PARENT)
    tripped = sorted(what for h in _handlers(tree) for what in _identity_checks(h, False))
    assert [what.split(" ", 1)[1] for what in tripped] == [
        "calls _require_consumer()",
        "calls _require_store()",
    ]
    assert all(_declared_by(h, "route") is None for h in _handlers(tree))


def _pages(tree):
    """Every handler a web UI class defines: its login and its pages."""
    return [
        function
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name.endswith("WebUI")
        for function in node.body
        if isinstance(function, ast.FunctionDef) and function.name.startswith("_h_")
    ]


def _reads_service_state(function):
    for node in ast.walk(function):
        if isinstance(node, ast.Attribute) and node.attr in SERVICE_STATE:
            yield f"{function.name}:{node.lineno} reads .{node.attr}"


def _calls(function):
    """The handlers ``function`` answers through: ``self._call(<handler>, ...)``."""
    return [
        ast.unparse(node.args[0])
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "_call"
        and node.args
    ]


def test_every_page_names_the_declared_handler_it_answers_through():
    """A page is ``@page(path, <Service>._h_*)`` and calls that handler; the
    one page that renders nothing, the login, is an ``open`` route."""
    from repro.server import webui

    pages = _pages(_tree(WEBUI))
    assert len(pages) == 8  # one login, four store pages, three broker pages
    for function in pages:
        declared = _declared_by(function, "page")
        if declared is None:
            login = _declared_by(function, "route")
            assert function.name == "_h_login" and login is not None, function.name
            assert [k.value.value for k in login.keywords if k.arg == "caller"] == ["open"]
            continue
        renders = ast.unparse(declared.args[1])
        assert _calls(function)[0] == renders, function.name
        for name in _calls(function):
            owner, handler = name.split(".")
            assert hasattr(getattr(getattr(webui, owner), handler), "route"), name


def test_no_page_reads_the_service_s_state_itself():
    offenders = [what for page in _pages(_tree(WEBUI)) for what in _reads_service_state(page)]
    assert offenders == [], "answer through the declared handler: " + "; ".join(offenders)


#: The broker's search and data pages of the parent commit, cut down.
WEB_PARENT = '''
class BrokerWebUI:
    def _h_search_submit(self, request):
        account = self.service.accounts.session_user(request.body.get("Token"))
        return [r.name for r in self.service.search.search(criteria)]

    def _h_data_submit(self, request):
        record = self.service.registry.get(contributor)
        key = self.service.escrow.key_for(account.username, record.host)
        return self.service.client.with_key(key).post(url, body)
'''


def test_the_page_guard_trips_on_the_parents_pages():
    tree = ast.parse(WEB_PARENT)
    assert {what.split(" reads ")[1] for p in _pages(tree) for what in _reads_service_state(p)} == {
        ".accounts", ".search", ".registry", ".escrow", ".client"
    }
    assert all(_declared_by(p, "page") is None for p in _pages(tree))
