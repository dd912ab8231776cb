"""Who may call a broker endpoint — the declarations are the oracle.

The broker's twin of ``tests/server/test_route_access.py``.  Every handler
of :class:`BrokerService` says who may call it (``@route(..., caller=)``):
anyone (``open``), any key (``key``), a registered consumer
(``consumer``) or a paired store (``store``).  A refusal matrix generated
from the table sends one minimal valid body per route through
``Network.request``, and after every refused request the broker's routes,
studies, escrow, saved lists and accounts — and the store's records — are
what they were before it.  ``BrokerWebUI``'s pages are held to the
declaration of the handler each one renders.
"""

import json

import pytest

from repro.core.system import SensorSafeSystem
from repro.rules.model import ALLOW, Rule
from repro.server.broker_service import BrokerService
from repro.server.webui import BrokerWebUI
from repro.storage import records

#: ``"METHOD path"`` -> declaration, read off the class.
ROUTES = {
    f"{member.route.method} {member.route.path}": member.route
    for member in vars(BrokerService).values()
    if hasattr(member, "route")
}

#: One minimal body the right caller gets a 2xx for (the key is added);
#: ``/api/sync``'s profile is the store's own, built by the fixture.
BODIES = {
    "POST /api/register_consumer": {"Username": "dave", "Password": "pw"},
    "POST /api/contributors/list": {},
    "POST /api/contributors/add": {"Contributors": ["alice"]},
    "POST /api/keys": {},
    "POST /api/search": {"Criteria": {"Sensor": ["ECG"]}},
    "POST /api/route": {"Contributor": "alice"},
    "POST /api/shards/status": {},
    "POST /api/lists/save": {"Name": "mine", "Contributors": ["alice"]},
    "POST /api/lists/get": {"Name": "saved"},
    "POST /api/studies/create": {"Study": "new-study"},
    "POST /api/studies/join": {"Study": "study"},
    "POST /api/sync": None,
    "POST /api/replicas/status": {},
    "POST /api/data": {"Contributor": "alice", "Query": {}},
    "GET /api/metrics": {},
    "GET /api/fleet/metrics": {},
}

#: Each broker web page -> the declared handler it renders.
WEB = {
    "POST /web/search": "POST /api/search",
    "POST /web/data": "POST /api/data",
    "POST /web/contributors": "POST /api/contributors/list",
}

WEB_BODIES = {
    "POST /web/search": {"Form": {"sensors": ["ECG"]}},
    "POST /web/data": {"Form": {"contributor": "alice"}},
}


class Broker:
    """A broker with a store, two consumers, a saved list and a study."""

    def __init__(self):
        self.system = system = SensorSafeSystem()
        self.broker = broker = system.broker
        alice = system.add_contributor("alice")
        alice.add_rule(Rule(consumers=("bob",), action=ALLOW))
        self.store = system.stores[alice.store_host]
        system.add_consumer("bob").add_contributors(["alice"])
        system.add_consumer("carol")
        self.keys = {
            "bob": broker.keys.key_of("bob"),
            "carol": broker.keys.key_of("carol"),
            "store": broker.keys.key_of(f"store:{self.store.host}"),
        }
        assert self.send("POST /api/lists/save", "bob", {"Name": "saved"}).status == 200
        assert self.send("POST /api/studies/create", "carol", {"Study": "study"}).status == 200
        BrokerWebUI(broker)

    def send(self, name, key=None, body=None):
        method, path = name.split()
        if body is None:
            body = BODIES.get(name) or WEB_BODIES.get(name, {})
            if name == "POST /api/sync":
                body = {"Profile": self.store._profile_json("alice")}
        body = dict(body)
        if key is not None:
            body["Token" if name in WEB else "ApiKey"] = self.keys.get(key, key)
        return self.system.network.request(method, f"https://broker{path}", body)

    def right_key(self, name):
        """Whose key the declaration admits (``open`` needs none)."""
        caller = ROUTES[WEB.get(name, name)].caller
        return {"open": None, "key": "bob", "consumer": "bob", "store": "store"}[caller]

    def wrong_key(self, name):
        """A valid key of the other kind of principal."""
        return {"consumer": "store", "store": "bob"}[ROUTES[WEB.get(name, name)].caller]

    def state(self):
        broker = self.broker
        return (
            [(r.name, r.host, r.rules_version) for r in broker.registry.all()],
            {s: sorted(broker.studies.coordinators_of(s)) for s in broker.studies.studies()},
            {c: dict(broker.escrow.ring_of(c)) for c in ("bob", "carol", "dave")},
            json.dumps(broker.saved_lists, sort_keys=True),
            broker.accounts.get("dave"),
            broker.directory.routing_epoch,
            records.dump(self.store),
        )

    def refused(self, name, key, status):
        """Send, expect ``status`` — and nothing moved at broker or store."""
        before = self.state()
        response = self.send(name, key)
        assert response.status == status, (name, key, response.status, response.body)
        assert self.state() == before, f"{name} refused {key!r} but changed state"


@pytest.fixture()
def broker():
    return Broker()


def routes(*callers):
    return [name for name, route in sorted(ROUTES.items()) if route.caller in callers]


class TestDeclarations:
    def test_every_mounted_api_route_is_declared(self, broker):
        mounted = {
            name: handler.route
            for name, handler in broker.broker.router._routes.items()
            if " /api/" in name
        }
        assert mounted == ROUTES

    def test_the_broker_s_callers_each_have_a_prelude(self):
        callers = {route.caller for route in ROUTES.values()}
        assert callers == {"open", "key", "consumer", "store"}
        assert all(hasattr(BrokerService, f"_caller_{c}") for c in callers - {"open"})

    def test_every_route_has_a_body(self):
        assert set(BODIES) == set(ROUTES)

    def test_no_route_is_a_store_write(self):
        assert not any(route.writes for route in ROUTES.values())


class TestRefusals:
    @pytest.mark.parametrize("name", routes("key", "consumer", "store") + sorted(WEB))
    def test_no_key_and_invalid_key_are_401(self, broker, name):
        broker.refused(name, None, 401)
        broker.refused(name, "f" * 64, 401)

    @pytest.mark.parametrize(
        "name",
        routes("consumer", "store") + [n for n in sorted(WEB) if ROUTES[WEB[n]].caller != "key"],
    )
    def test_the_wrong_kind_of_principal_is_403(self, broker, name):
        broker.refused(name, broker.wrong_key(name), 403)

    def test_a_store_syncs_only_its_own_contributors(self, broker):
        before = broker.state()
        profile = {**broker.store._profile_json("alice"), "Host": "elsewhere"}
        response = broker.send("POST /api/sync", "store", {"Profile": profile})
        assert response.status == 403 and broker.state() == before

    def test_a_consumer_searches_only_as_itself(self, broker):
        before = broker.state()
        body = {"Criteria": {"Consumer": "carol"}}
        assert broker.send("POST /api/search", "bob", body).status == 403
        assert broker.state() == before


class TestRightCaller:
    @pytest.mark.parametrize("name", sorted(ROUTES) + sorted(WEB))
    def test_right_caller_is_2xx(self, broker, name):
        response = broker.send(name, broker.right_key(name))
        assert 200 <= response.status < 300, (name, response.status, response.body)

    @pytest.mark.parametrize("name", sorted(WEB))
    def test_a_page_is_admitted_as_its_handler(self, broker, name):
        method, path = name.split()
        admission = broker.broker.admission
        assert admission.classify(method, path) == ROUTES[WEB[name]].admission
