"""F2 — Regenerate Fig. 2: every access passes the authentication layer,
then the query/privacy-processing layer.

Exercises the request matrix (no key / invalid key / valid key of the
wrong role / valid key) against the store's and broker's endpoints and
reports the status codes.  The timed section measures a fully
authenticated, rule-processed query — the layered hot path of the figure.
"""

from repro.datastore.query import DataQuery
from repro.util.timeutil import Interval

from conftest import report_table
from helpers import HOUR_MS, MONDAY, populated_system


def test_fig2_authentication_matrix(benchmark):
    system, alice, bob, _, _ = populated_system(rate_scale=0.02)
    network = system.network
    bob_key = bob.refresh_keys()["alice-store"]
    alice_key = alice.client.api_key

    def status(body, key=None):
        if key is not None:
            body = dict(body, ApiKey=key)
        return network.request("POST", "https://alice-store/api/query", body).status

    query_body = {"Contributor": "alice", "Query": {}}
    rows = [
        ["query API", "no key", status(query_body)],
        ["query API", "invalid key", status(query_body, "f" * 64)],
        ["query API", "consumer key", status(query_body, bob_key)],
        ["query API", "owner key", status(query_body, alice_key)],
    ]
    upload_body = {"Contributor": "alice", "Segments": []}
    rows += [
        ["upload API", "no key", status_for(network, "/api/upload", upload_body)],
        ["upload API", "consumer key (403)", status_for(network, "/api/upload", dict(upload_body, ApiKey=bob_key))],
        ["upload API", "owner key", status_for(network, "/api/upload", dict(upload_body, ApiKey=alice_key))],
        ["rules API", "consumer key (403)", status_for(network, "/api/rules/list", dict({"Contributor": "alice"}, ApiKey=bob_key))],
        ["rules API", "owner key", status_for(network, "/api/rules/list", dict({"Contributor": "alice"}, ApiKey=alice_key))],
        ["broker profile API", "consumer key (403)", status_for(network, "/api/profiles", dict({"Contributors": ["alice"]}, ApiKey=bob_key))],
    ]
    report_table(
        "Fig. 2 — Authentication layer: status per (endpoint, credential)",
        ["Endpoint", "Credential", "Status"],
        rows,
        notes="401 = rejected at the auth layer; 403 = authenticated, wrong role; 200 = passed to query/privacy processing",
    )
    assert rows[0][2] == 401 and rows[1][2] == 401
    assert rows[2][2] == 200 and rows[3][2] == 200

    # Timed: the layered path — authenticate, query, rule-process.
    window = DataQuery(time_range=Interval(MONDAY + 8 * HOUR_MS, MONDAY + 9 * HOUR_MS))

    def authenticated_query():
        return network.request(
            "POST",
            "https://alice-store/api/query",
            {"Contributor": "alice", "Query": window.to_json(), "ApiKey": bob_key},
        )

    response = benchmark(authenticated_query)
    assert response.ok


def status_for(network, path, body):
    return network.request("POST", f"https://alice-store{path}", body).status


def test_fig2_tls_invariant(benchmark):
    """API keys travel only in HTTPS POST bodies (Section 5.4)."""
    import pytest

    from repro.exceptions import InsecureTransportError

    system, alice, _, _, _ = populated_system(upload=False)
    key = alice.client.api_key

    def safe_request():
        return system.network.request(
            "POST",
            "https://alice-store/api/rules/list",
            {"Contributor": "alice", "ApiKey": key},
        )

    assert benchmark(safe_request).ok
    with pytest.raises(InsecureTransportError):
        system.network.request(
            "POST", "http://alice-store/api/rules/list", {"ApiKey": key}
        )
    report_table(
        "Fig. 2 / Section 5.4 — Transport rules for API keys",
        ["Channel", "Key in body", "Outcome"],
        [
            ["https POST", "yes", "delivered"],
            ["http POST", "yes", "refused (InsecureTransportError)"],
            ["https GET", "yes", "refused (keys belong in POST bodies)"],
        ],
    )
