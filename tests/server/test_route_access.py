"""Who may call a store endpoint — the declarations are the oracle.

Every ``/api/`` handler of :class:`DataStoreService` says who may call it
(``@_route(..., caller=, writes=)``).  These tests read those declarations
back and hold the running service to them: a refusal matrix generated from
the table, one minimal valid body per route, sent through
``Network.request`` — and after every refused request the store's records,
audit trail, WAL and fencing state are what they were before it.  The web
UI's ``/web/`` pages are held to the declaration of the handler each one
renders.  The broker's twin is ``tests/server/test_broker_route_access.py``.
"""

import pytest

from repro.exceptions import InsecureTransportError
from repro.net.transport import Network
from repro.rules.model import ALLOW, Rule
from repro.rules.parser import rule_to_json
from repro.sensors.packets import encode_upload, packetize
from repro.server.broker_service import BrokerService
from repro.server.datastore_service import ROLE_REPLICA, DataStoreService
from repro.server.routes import CALLERS, mount, route
from repro.server.webui import BrokerWebUI, DataStoreWebUI
from repro.storage import records
from repro.storage.replication import encode_ship

from tests.conftest import MONDAY, make_segment

#: ``"METHOD path"`` -> declaration, read off the class.
ROUTES = {
    f"{member.route.method} {member.route.path}": member.route
    for member in vars(DataStoreService).values()
    if hasattr(member, "route")
}

WRITES = {
    "POST /api/upload",
    "POST /api/upload_packets",
    "POST /api/flush",
    "POST /api/query",
    "POST /api/aggregate",
    "POST /api/rules/add",
    "POST /api/rules/remove",
    "POST /api/rules/replace",
    "POST /api/places/set",
    "POST /api/delete",
    "POST /api/enroll",
    "POST /api/migrate/install",
    "POST /api/migrate/fence",
    "POST /api/migrate/complete",
}

ALICE = {"Contributor": "alice"}

#: One minimal body the right caller gets a 2xx for (the key is added).
BODIES = {
    "POST /api/register": {"Username": "dave", "Role": "contributor"},
    "POST /api/enroll": {"Consumer": "dave", "Groups": ["study"]},
    "POST /api/upload": {**ALICE, "Segments": [make_segment(start_ms=MONDAY + 60_000).to_json()]},
    "POST /api/upload_packets": {
        **ALICE,
        "Upload": encode_upload(packetize("ECG", MONDAY + 120_000, 250, [1.0, 2.0])),
    },
    "POST /api/flush": ALICE,
    "POST /api/query": ALICE,
    "POST /api/aggregate": {**ALICE, "Aggregate": {"Function": "mean", "WindowMs": 60_000}},
    "POST /api/delete": ALICE,
    "POST /api/rules/list": ALICE,
    "POST /api/rules/add": {**ALICE, "Rule": rule_to_json(Rule(consumers=("bob",), action=ALLOW))},
    "POST /api/rules/remove": {**ALICE, "RuleId": "no-such-rule"},
    "POST /api/rules/replace": {**ALICE, "Rules": []},
    "POST /api/rules/download": ALICE,
    "POST /api/places/set": {**ALICE, "Places": []},
    "POST /api/places/list": ALICE,
    "POST /api/audit/list": ALICE,
    "POST /api/audit/summary": ALICE,
    "POST /api/profiles": {},
    "POST /api/migrate/accept": {"Contributors": ["alice"], "Source": "src"},
    "POST /api/migrate/send": {"Contributors": ["alice"]},
    "POST /api/migrate/install": {"Records": []},
    "POST /api/migrate/fence": {"Contributors": ["carol"]},
    "POST /api/migrate/complete": {"RuleVersions": {}},
    "POST /api/promote": {"Epoch": 2},
    "POST /api/demote": {"Epoch": 2},
    "POST /api/replicate/append": {
        "Primary": "elsewhere", "Epoch": 1, "Resync": False, **encode_ship([])
    },
    "POST /api/replicate/link": {"Replicas": []},
    "POST /api/health": {},
    "POST /api/recovery": {},
    "POST /api/stats": {},
    "GET /api/metrics": {},
}


#: Each web UI page -> the declared handler it renders, with its token as the key.
WEB = {
    "POST /web/rules": "POST /api/rules/download",
    "POST /web/rules/submit": "POST /api/rules/add",
    "POST /web/data": "POST /api/query",
    "POST /web/audit": "POST /api/audit/list",
}

WEB_BODIES = {"POST /web/rules/submit": {"Form": {"consumers": "bob", "action": "Allow"}}}

#: The pages' retired GET URLs, which carried the token in the path: none is a route.
RETIRED = ["GET /web/audit/{token}", "GET /web/data/{token}", "GET /web/rules/{token}"]


class Store:
    """A durable store with one principal of every kind and some data; a
    second store, ``dest``, takes what it sends.  Every request comes from
    ``src``, the host the store accepted a move from."""

    def __init__(self, directory):
        self.network = Network()
        self.service = DataStoreService(
            "store", self.network, directory=str(directory), durable=True
        )
        self.dest = DataStoreService("dest", self.network)
        self.keys = {
            "alice": self.service.register_contributor("alice"),
            "carol": self.service.register_contributor("carol"),
            "bob": self.service.register_consumer("bob"),
            "broker": self.service.pair_broker("", ""),
            "primary": self.service.pair_primary(),
            "mover": self.service.accept_move(["alice"], "src"),
        }
        self.service.store.add_segment(make_segment())
        self.service.store.flush()
        self.service.durability.commit()

    def send(self, name, key=None, body=None):
        method, path = name.split()
        body = dict(body if body is not None else BODIES.get(name) or WEB_BODIES.get(name, {}))
        if name == "POST /api/migrate/fence" and "Digest" not in body:  # as just sent
            body["Digest"] = records.export_range(self.service, body["Contributors"])[1]
        if name == "POST /api/migrate/send" and "Dest" not in body:
            accepted = self.dest.accept_move(body["Contributors"], "store")
            body["Dest"] = {"Host": "dest", "ApiKey": accepted}
        if key is not None and name in RETIRED:
            path = path.replace("{token}", self.keys.get(key, key))
        elif key is not None:
            body["Token" if name in WEB else "ApiKey"] = self.keys.get(key, key)
        return self.network.request(method, f"https://store{path}", body, client="src")

    def right_key(self, name):
        """Whose key the declaration admits (``open`` needs none)."""
        return {
            "owner": "alice", "reader": "bob", "broker": "broker",
            "primary": "primary", "mover": "mover", "key": "bob", "open": None,
        }[ROUTES[name].caller]

    def state(self):
        service = self.service
        return (
            records.dump(service),
            {c: [r.to_json() for r in service.audit.trail_of(c)] for c in ("alice", "carol")},
            service.durability.wal.last_lsn,
            (service.role, service.epoch),
        )

    def refused(self, name, key, status, kind=None, body=None):
        """Send, expect ``status`` — and a store that did not move."""
        before = self.state()
        response = self.send(name, key, body)
        assert response.status == status, (name, key, response.status, response.body)
        if kind is not None:
            assert response.body["ErrorKind"] == kind, (name, response.body)
        assert self.state() == before, f"{name} refused {key!r} but changed the store"


@pytest.fixture()
def store(tmp_path):
    return Store(tmp_path / "store")


def routes(*callers, writes=None):
    return [
        name for name, route in sorted(ROUTES.items())
        if route.caller in callers and writes in (None, route.writes)
    ]


class TestDeclarations:
    def test_every_mounted_api_route_is_declared(self, store):
        mounted = {
            name: getattr(handler, "route", None)
            for name, handler in store.service.router._routes.items()
        }
        assert mounted == ROUTES  # the web UI mounts its /web/ pages later, elsewhere
        assert all(route.caller in CALLERS for route in ROUTES.values())

    def test_the_declarations_are_the_admission_classes(self, store):
        classes = {name: declared.admission for name, declared in ROUTES.items()}
        assert store.service.admission.classes == classes
        assert len(ROUTES) == 31

    def test_writes_is_every_mutation_and_every_read(self):
        """What ships under its own ack: the mutations, enrollment, and the
        two reads, whose audit record is their write."""
        assert {name for name, route in ROUTES.items() if route.writes} == WRITES

    def test_every_route_has_a_body(self):
        assert set(BODIES) == set(ROUTES)

    def test_an_unknown_caller_cannot_be_declared(self):
        with pytest.raises(ValueError):
            route("POST", "/api/x", caller="anyone", admission="query")(lambda s, r: {})
        with pytest.raises(ValueError):
            route("POST", "/api/x", caller="open", admission="urgent")(lambda s, r: {})


class TestRefusals:
    @pytest.mark.parametrize("name", routes(*set(CALLERS) - {"open"}))
    def test_no_key_and_invalid_key_are_401(self, store, name):
        store.refused(name, None, 401)
        store.refused(name, "f" * 64, 401)

    @pytest.mark.parametrize("name", routes("owner"))
    def test_owner_routes_refuse_consumers_and_other_contributors(self, store, name):
        store.refused(name, "bob", 403)
        store.refused(name, "carol", 403)

    @pytest.mark.parametrize("name", routes("broker", "primary", "mover"))
    def test_peer_routes_refuse_consumers_and_owners(self, store, name):
        store.refused(name, "bob", 403)
        store.refused(name, "alice", 403)

    @pytest.mark.parametrize("name", routes("key"))
    def test_any_key_routes_refuse_a_move_key(self, store, name):
        store.refused(name, "mover", 403, "AuthorizationError")

    @pytest.mark.parametrize("name", routes("owner", "reader"))
    def test_fenced_contributor_is_409(self, store, name):
        fence = store.send(
            "POST /api/migrate/fence", "broker", {"Contributors": ["alice"]}
        )
        assert fence.status == 200
        store.refused(name, store.right_key(name), 409, "NotPrimaryError")

    def test_fenced_contributor_is_missing_from_the_profile_pull(self, store):
        fence = store.send(
            "POST /api/migrate/fence", "broker", {"Contributors": ["alice"]}
        )
        assert fence.status == 200
        body = store.send("POST /api/profiles", "broker", {"Contributors": ["alice", "carol"]}).body
        assert [p["Contributor"] for p in body["Profiles"]] == ["carol"]
        assert body["Missing"] == ["alice"]

    @pytest.mark.parametrize("name", sorted(WRITES) + routes("reader"))
    def test_demoted_store_refuses_before_it_looks_at_the_key(self, store, name):
        store.service.demote()
        for key in (None, "bob", store.right_key(name)):
            store.refused(name, key, 409, "NotPrimaryError")

    @pytest.mark.parametrize("name", routes("owner", writes=False))
    def test_demoted_store_still_answers_its_owners_read_only_routes(self, store, name):
        store.service.demote()
        assert store.send(name, "alice").status == 200
        store.refused(name, "bob", 403)

    @pytest.mark.parametrize("username", ["bob", "study", "dave"])
    def test_open_registration_enrolls_no_consumer(self, store, username):
        """A consumer's name, a group's, or a new one: only the broker
        enrolls a consumer, so nobody can claim one at ``/api/register``."""
        body = {"Username": username, "Role": "consumer"}
        for key in (None, "bob", "alice"):
            store.refused("POST /api/register", key, 403, "AuthorizationError", body)

    def test_a_fence_over_a_changed_range_fences_nothing(self, store):
        stale = records.export_range(store.service, ["alice"])[1]
        assert store.send("POST /api/rules/add", "alice").status == 200
        body = {"Contributors": ["alice"], "Digest": stale}
        store.refused("POST /api/migrate/fence", "broker", 409, "ConflictError", body)
        assert store.service.roles["alice"] == records.ROLE_CONTRIBUTOR

    def test_enrollment_cannot_take_over_a_contributor(self, store):
        body = {"Consumer": "alice", "Groups": ["study"]}
        store.refused("POST /api/enroll", "broker", 409, "ConflictError", body)

    @pytest.mark.parametrize("username", ["bob", "__broker__", "__primary__"])
    def test_registration_cannot_take_over_another_role(self, store, username):
        body = {"Username": username, "Role": "contributor"}
        store.refused("POST /api/register", None, 409, "ConflictError", body)

    @pytest.mark.parametrize(
        "body", [{"Groups": ["study"]}, {"Consumer": "dave", "Groups": "study"}]
    )
    def test_enrollment_needs_a_consumer_and_a_list_of_groups(self, store, body):
        store.refused("POST /api/enroll", "broker", 400, "BadRequestError", body)

    def test_reader_routes_need_a_named_known_contributor(self, store):
        for name in routes("reader"):
            before = store.state()
            body = {k: v for k, v in BODIES[name].items() if k != "Contributor"}
            assert store.send(name, "bob", body).status == 400, name
            assert store.send(name, "bob", {**body, "Contributor": "nobody"}).status == 404, name
            assert store.state() == before


class TestRightCaller:
    @pytest.mark.parametrize("name", sorted(ROUTES))
    def test_right_caller_is_2xx(self, store, name):
        if name == "POST /api/replicate/append":
            store.service.role = ROLE_REPLICA  # only a replica takes ships
        response = store.send(name, store.right_key(name))
        assert 200 <= response.status < 300, (name, response.status, response.body)

    def test_owner_reads_their_own_data_through_both_reader_routes(self, store):
        for name in routes("reader"):
            assert store.send(name, "alice").status == 200, name


class TestWebPages:
    """A page is refused exactly as the ``/api/`` handler it renders."""

    @pytest.fixture()
    def store(self, tmp_path):
        store = Store(tmp_path / "store")
        DataStoreWebUI(store.service)
        return store

    @pytest.mark.parametrize("name", sorted(WEB))
    def test_the_owner_s_token_is_2xx(self, store, name):
        assert store.send(name, "alice").status == 200

    @pytest.mark.parametrize("name", sorted(WEB) + RETIRED)
    def test_no_invalid_and_a_consumer_s_token_are_refused(self, store, name):
        if name in RETIRED:  # a token in a URL reaches no handler, whoever's it is
            for key in (None, "f" * 64, "bob", "alice"):
                store.refused(name, key, 404)
            return
        store.refused(name, None, 401)
        store.refused(name, "f" * 64, 401)
        # bob is no contributor: the owner prelude says so, the reader's finds none
        store.refused(name, "bob", {"owner": 403, "reader": 404}[ROUTES[WEB[name]].caller])

    @pytest.mark.parametrize("name", sorted(WEB))
    def test_fenced_contributor_is_409(self, store, name):
        fence = store.send(
            "POST /api/migrate/fence", "broker", {"Contributors": ["alice"]}
        )
        assert fence.status == 200
        store.refused(name, "alice", 409, "NotPrimaryError")

    @pytest.mark.parametrize("name", sorted(WEB) + RETIRED)
    def test_demoted_store_answers_a_page_as_its_handler(self, store, name):
        store.service.demote()
        if name in RETIRED:  # a replica mounts no GET page either
            store.refused(name, "alice", 404)
            return
        handler = ROUTES[WEB[name]]
        if handler.writes or handler.caller == "reader":
            store.refused(name, "alice", 409, "NotPrimaryError")
        else:
            assert store.send(name, "alice").status == 200

    @pytest.mark.parametrize("name", sorted(WEB))
    def test_a_page_is_admitted_as_its_handler(self, store, name):
        method, path = name.split()
        handler = ROUTES[WEB[name]]
        assert store.service.admission.classify(method, path) == handler.admission

    @pytest.mark.parametrize("name", sorted(WEB))
    def test_a_token_travels_only_in_an_https_post_body(self, store, name):
        path, token = name.split()[1], store.keys["alice"]
        with pytest.raises(InsecureTransportError):
            store.network.request("POST", f"http://store{path}", {"Token": token})
        with pytest.raises(InsecureTransportError):
            store.network.request("GET", f"https://store{path}", {"Token": token})

    @pytest.mark.parametrize(
        "username, password", [("alice", "wrong"), ("bob", "pw"), ("__broker__", "pw")]
    )
    def test_login_is_the_owner_s_password_only(self, store, username, password):
        body = {"Username": username, "Password": password}
        store.refused("POST /web/login", None, 401, "AuthenticationError", body)
        body = {"Username": "alice", "Password": "pw"}
        assert store.send("POST /web/login", None, body).body == {"Token": store.keys["alice"]}


def test_every_route_a_web_ui_mounts_has_a_declared_class():
    """A store with its web UI and a broker with its own: every mounted
    route is a declaration, and the admission map holds its class — no
    route falls through to a default."""
    network = Network()
    store = DataStoreService("store", network)
    broker = BrokerService(network)
    for service, web_ui, pages in ((store, DataStoreWebUI, 5), (broker, BrokerWebUI, 4)):
        web_ui(service)
        mounted = {name: handler.route for name, handler in service.router._routes.items()}
        assert service.admission.classes == {
            name: declared.admission for name, declared in mounted.items()
        }
        assert sum(name.startswith("POST /web/") for name in mounted) == pages


def test_a_second_handler_for_a_mounted_route_is_refused():
    """``mount`` refuses a ``"METHOD path"`` its router already serves, so
    the admission class and the handler answering a route cannot disagree."""

    class Shadow:
        @route("POST", "/api/query", caller="open", admission="scrape")
        def _h_shadow(self, request):
            return {}

    store = DataStoreService("store", Network())
    served = store.router._routes["POST /api/query"]
    with pytest.raises(ValueError, match="already mounted"):
        mount(Shadow(), store.router, store.admission.classes)
    assert store.router._routes["POST /api/query"] is served
    assert store.admission.classes["POST /api/query"] == served.route.admission == "query"
    DataStoreWebUI(store)
    with pytest.raises(ValueError, match="already mounted"):
        DataStoreWebUI(store)
