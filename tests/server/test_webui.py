"""Tests for the web user interfaces (Fig. 3)."""

import re

import pytest

from repro.net.client import HttpClient
from repro.net.transport import Network
from repro.server.datastore_service import DataStoreService
from repro.server.broker_service import BrokerService
from repro.server.webui import (
    BrokerWebUI,
    DataStoreWebUI,
    form_to_rule_json,
    render_rule_editor,
)
from repro.rules.model import ALLOW, Rule
from repro.rules.parser import rule_from_json
from repro.util.geo import BoundingBox, LabeledPlace

from tests.conftest import make_segment


@pytest.fixture()
def store_ui():
    network = Network()
    service = DataStoreService("store", network)
    DataStoreWebUI(service)
    service.register_contributor("alice", password="alicepw")
    client = HttpClient(network, "browser")
    token = client.post(
        "https://store/web/login", {"Username": "alice", "Password": "alicepw"}
    )["Token"]
    return network, service, client, token


class TestLogin:
    def test_login_returns_session(self, store_ui):
        _, _, _, token = store_ui
        assert len(token) == 64

    def test_bad_password_401(self, store_ui):
        network, _, client, _ = store_ui
        response = client.post(
            "https://store/web/login",
            {"Username": "alice", "Password": "wrong"},
            raw=True,
        )
        assert response.status == 401

    def test_pages_require_session(self, store_ui):
        _, _, client, _ = store_ui
        response = client.post("https://store/web/rules", {"Token": "bogus-token"}, raw=True)
        assert response.status == 401


class TestRuleEditorPage:
    def test_page_is_html_with_form_widgets(self, store_ui):
        _, service, client, token = store_ui
        service.set_places(
            "alice", {"UCLA": LabeledPlace("UCLA", BoundingBox(34, -119, 35, -118))}
        )
        response = client.post("https://store/web/rules", {"Token": token}, raw=True)
        assert response.content_type == "text/html"
        html = response.body["Html"]
        # The paper's Fig. 3 building blocks: map, checkboxes, radios.
        assert 'id="map"' in html
        assert 'type="checkbox"' in html
        assert 'type="radio"' in html
        assert "UCLA" in html

    def test_existing_rules_listed(self, store_ui):
        _, service, client, token = store_ui
        service.rules.add("alice", Rule(consumers=("bob",), action=ALLOW))
        html = client.post("https://store/web/rules", {"Token": token}, raw=True).body["Html"]
        assert "Allow bob" in html

    def test_html_escapes_user_content(self):
        rule = Rule(consumers=("<script>alert(1)</script>",), action=ALLOW)
        html = render_rule_editor("alice", [rule], {})
        assert "<script>alert(1)</script>" not in html


class TestFormSubmission:
    def test_form_creates_fig4_style_rule(self, store_ui):
        _, service, client, token = store_ui
        form = {
            "consumers": "Bob",
            "location_labels": ["UCLA"],
            "days": ["Mon", "Tue", "Wed", "Thu", "Fri"],
            "time_from": "9:00am",
            "time_to": "6:00pm",
            "contexts": ["Conversation"],
            "action": "Abstraction",
            "abs_Stress": "NotShare",
        }
        body = client.post(
            "https://store/web/rules/submit", {"Token": token, "Form": form}
        )
        rule = service.rules.get("alice", body["RuleId"])
        assert rule.consumers == ("Bob",)
        assert rule.contexts == ("Conversation",)
        assert rule.action.abstraction == {"Stress": "NotShare"}
        assert rule.time.repeated[0].start_minute == 540

    def test_abstraction_requires_levels(self, store_ui):
        _, _, client, token = store_ui
        response = client.post(
            "https://store/web/rules/submit",
            {"Token": token, "Form": {"action": "Abstraction"}},
            raw=True,
        )
        assert response.status == 400

    def test_form_to_rule_json_roundtrips_through_parser(self):
        obj = form_to_rule_json(
            {"consumers": "bob, carol", "sensors": ["ECG"], "action": "Deny"}
        )
        rule = rule_from_json(obj)
        assert rule.consumers == ("bob", "carol")
        assert rule.action.is_deny


class TestDataViewPage:
    def test_channel_summary_table(self, store_ui):
        _, service, client, token = store_ui
        service.store.add_segment(make_segment(n=32))
        service.store.flush()
        html = client.post("https://store/web/data", {"Token": token}, raw=True).body["Html"]
        assert "ECG" in html
        assert "32" in html

    def test_empty_store_message(self, store_ui):
        _, _, client, token = store_ui
        html = client.post("https://store/web/data", {"Token": token}, raw=True).body["Html"]
        assert "No data uploaded yet" in html


class TestBrokerWebUI:
    @pytest.fixture()
    def broker_ui(self, system):
        BrokerWebUI(system.broker)
        system.add_contributor("alice")
        system.broker.register_consumer("bob", password="bobpw")
        client = HttpClient(system.network, "browser")
        token = client.post(
            "https://broker/web/login", {"Username": "bob", "Password": "bobpw"}
        )["Token"]
        return system, client, token

    def test_login_answers_the_consumer_s_broker_key(self, broker_ui):
        system, client, token = broker_ui
        assert token == system.broker.keys.key_of("bob")
        for username, password in (("bob", "wrong"), ("alice", "pw"), ("ghost", "pw")):
            response = client.post(
                "https://broker/web/login",
                {"Username": username, "Password": password},
                raw=True,
            )
            assert response.status == 401 and "Token" not in response.body

    def test_contributor_list_page(self, broker_ui):
        _, client, token = broker_ui
        response = client.post("https://broker/web/contributors", {"Token": token}, raw=True)
        assert "alice" in response.body["Html"] and "alice-store" in response.body["Html"]

    def test_search_page_and_submit(self, broker_ui):
        system, client, token = broker_ui
        page = client.post("https://broker/web/search", {"Token": token}, raw=True)
        assert "Required sensors" in page.body["Html"]
        result = client.post(
            "https://broker/web/search",
            {"Token": token, "Form": {"sensors": ["ECG"]}},
            raw=True,
        )
        assert result.ok
        assert "Matches" in result.body["Html"]

    def test_a_web_search_is_the_api_search(self, broker_ui):
        """The page answers exactly ``/api/search``'s ``Matches`` for the same
        criteria, and is counted as the search it is."""
        system, client, token = broker_ui
        system.contributors["alice"].add_rule(Rule(consumers=("bob",), action=ALLOW))
        system.add_contributor("carol")  # shares nothing with bob
        key = system.broker.keys.key_of("bob")
        api = client.post(
            "https://broker/api/search", {"ApiKey": key, "Criteria": {"Sensor": ["ECG"]}}
        )
        metrics = system.obs.metrics
        before = metrics.sum_counter("broker_searches_total")
        page = client.post(
            "https://broker/web/search", {"Token": token, "Form": {"sensors": ["ECG"]}}, raw=True
        )
        listed = re.findall(r"<li>(.*?)</li>", page.body["Html"])
        assert listed == [m["Contributor"] for m in api["Matches"]] == ["alice"]
        assert metrics.sum_counter("broker_searches_total") == before + 1


class TestAuditPage:
    def test_audit_page_lists_accesses(self, store_ui, system):
        network, service, client, token = store_ui
        from repro.server.audit import AuditLog

        service.audit.record_access(
            principal="bob",
            contributor="alice",
            query={},
            raw_access=False,
            segments_scanned=2,
        )
        html = client.post("https://store/web/audit", {"Token": token}, raw=True).body["Html"]
        assert "bob" in html
        assert "Access summary" in html

    def test_audit_page_empty_state(self, store_ui):
        _, _, client, token = store_ui
        html = client.post("https://store/web/audit", {"Token": token}, raw=True).body["Html"]
        assert "No accesses recorded" in html

    def test_audit_page_requires_session(self, store_ui):
        _, _, client, _ = store_ui
        assert client.post("https://store/web/audit", {"Token": "bogus"}, raw=True).status == 401


class TestBrokerDataPage:
    @pytest.fixture()
    def data_ui(self, system):
        from repro.rules.model import ALLOW as _ALLOW

        BrokerWebUI(system.broker)
        alice = system.add_contributor("alice")
        alice.upload_segments([make_segment(n=8)])
        alice.flush()
        alice.add_rule(Rule(consumers=("webbob",), action=_ALLOW))
        key = system.broker.register_consumer("webbob", password="pw")
        from repro.core.consumer import Consumer

        consumer = Consumer("webbob", "broker", HttpClient(system.network, "webbob", key))
        consumer.add_contributors(["alice"])
        client = HttpClient(system.network, "browser")
        token = client.post(
            "https://broker/web/login", {"Username": "webbob", "Password": "pw"}
        )["Token"]
        return system, client, token

    def test_data_page_renders_released_rows(self, data_ui):
        _, client, token = data_ui
        response = client.post(
            "https://broker/web/data",
            {"Token": token, "Form": {"contributor": "alice", "channels": ["ECG"]}},
            raw=True,
        )
        assert response.ok
        html = response.body["Html"]
        assert "ECG" in html
        assert "Nothing released" not in html

    def test_data_page_requires_account_escrow(self, data_ui):
        system, client, token = data_ui
        system.add_contributor("stranger")
        response = client.post(
            "https://broker/web/data",
            {"Token": token, "Form": {"contributor": "stranger"}},
            raw=True,
        )
        assert response.status == 403

    def test_data_page_validates_query(self, data_ui):
        _, client, token = data_ui
        response = client.post(
            "https://broker/web/data",
            {
                "Token": token,
                "Form": {"contributor": "alice", "channels": ["Sonar"]},
            },
            raw=True,
        )
        assert response.status == 400
