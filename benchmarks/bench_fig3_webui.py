"""F3 — Regenerate Fig. 3: the web user interface for privacy rules.

Logs into the store's web UI, renders the rule-editor page (map div,
check boxes, radio buttons — the components the figure shows), submits
the form that reproduces the paper's example rule, and confirms the
stored JSON matches the Fig. 4 shape.  Timed section: page render.
"""

from repro.net.client import HttpClient
from repro.server.webui import BrokerWebUI, DataStoreWebUI

from conftest import report_table
from helpers import populated_system


def _login(system, alice):
    DataStoreWebUI(system.stores["alice-store"])
    browser = HttpClient(system.network, "browser")
    token = browser.post(
        "https://alice-store/web/login", {"Username": "alice", "Password": "pw"}
    )["Token"]
    return browser, token


def test_fig3_rule_editor_page(benchmark):
    system, alice, _, persona, _ = populated_system(upload=False)

    browser, token = _login(system, alice)

    def render():
        return browser.post("https://alice-store/web/rules", {"Token": token}, raw=True)

    response = benchmark(render)
    html = response.body["Html"]
    widgets = {
        "Google-Maps region div": 'id="map"' in html,
        "check boxes": 'type="checkbox"' in html,
        "radio buttons": 'type="radio"' in html,
        "text boxes": 'type="text"' in html,
        "abstraction selects": "<select" in html,
        "place labels listed": "UCLA" in html,
    }
    report_table(
        "Fig. 3 — Rule-editor page widgets",
        ["Widget", "Present"],
        [[k, "yes" if v else "NO"] for k, v in widgets.items()],
        notes=f"rendered page: {len(html):,} bytes of HTML",
    )
    assert all(widgets.values())


def test_fig3_form_submission_produces_fig4_json(benchmark):
    system, alice, _, _, _ = populated_system(upload=False)
    browser, token = _login(system, alice)

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

    def submit():
        return browser.post(
            "https://alice-store/web/rules/submit", {"Token": token, "Form": dict(form)}
        )

    body = benchmark.pedantic(submit, rounds=1, iterations=1)
    rule_json = body["Rule"]
    report_table(
        "Fig. 3 -> Fig. 4 — Form submission serialized as rule JSON",
        ["Key", "Value"],
        [[k, str(v)] for k, v in rule_json.items()],
        notes="same JSON shape as the paper's Fig. 4 second rule",
    )
    assert rule_json["Consumer"] == ["Bob"]
    assert rule_json["Context"] == ["Conversation"]
    assert rule_json["Action"] == {"Abstraction": {"Stress": "NotShare"}}


def test_fig3_broker_search_page(benchmark):
    system, _, bob, _, _ = populated_system(upload=False)
    BrokerWebUI(system.broker)
    system.broker.accounts.register("webbob", "pw", "consumer")
    browser = HttpClient(system.network, "browser")
    token = browser.post(
        "https://broker/web/login", {"Username": "webbob", "Password": "pw"}
    )["Token"]

    def render():
        return browser.post("https://broker/web/search", {"Token": token}, raw=True)

    response = benchmark(render)
    assert "Required sensors" in response.body["Html"]
