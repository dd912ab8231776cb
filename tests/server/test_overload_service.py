"""Enforce-mode overload behavior of the wired services.

Unit coverage of the controller lives in ``tests/net/test_overload.py``;
these tests exercise the *wiring*: brownout order on a live store, cached
releases outliving cold queries, the typed 504 firing before the rule
engine, the broker's failure detector tolerating an overloaded (but
alive) primary, and — with the clock running between arrivals — a shed
only ever past the arriving request's class budget.
"""

import random

import pytest

from tests.conftest import MONDAY, make_segment
from repro.core.system import SensorSafeSystem
from repro.datastore.query import DataQuery
from repro.exceptions import OverloadedError
from repro.net.overload import BROWNOUT_ORDER, OverloadConfig
from repro.net.resilience import NO_RETRY
from repro.rules.model import ALLOW, Rule
from repro.util.timeutil import Interval

HOUR = 3_600_000


def build(**kwargs):
    """An enforce-mode deployment with one contributor and one consumer.

    ``NO_RETRY`` keeps shed assertions deterministic: a retrying client
    would sleep on the simulated clock, draining the very backlog the
    test just built.
    """
    system = SensorSafeSystem(seed=11, overload="enforce", retry=NO_RETRY, **kwargs)
    alice = system.add_contributor("alice")
    bob = system.add_consumer("bob")
    bob.add_contributors(["alice"])
    alice.add_rule(Rule(consumers=("bob",), action=ALLOW))
    alice.upload_segments([make_segment()])
    alice.flush()
    system.clock.advance(60_000)  # drain the setup's virtual backlog
    return system, alice, bob


def flood(system, host, n, path="/api/upload"):
    """Build virtual backlog with admitted-but-unauthenticated requests.

    The gate runs before authentication, so each request extends the
    backlog by its class's service cost even though the handler 401s —
    cheap, deterministic load with no stored side effects.
    """
    for _ in range(n):
        system.network.request("POST", f"https://{host}{path}", {})


class TestStoreBrownout:
    def test_sheds_in_privacy_safe_order(self):
        system, alice, bob = build()
        flood(system, "alice-store", 150)  # 150 uploads x 4ms = 600ms backlog
        store = system.stores["alice-store"]
        assert store.admission.queue_ms() == pytest.approx(600.0)
        # Scrapes, aggregates, and cold queries shed (budgets 100/200/400)…
        for path in ("/api/stats", "/api/aggregate", "/api/query"):
            response = system.network.request(
                "POST", f"https://alice-store{path}", {}
            )
            assert response.status == 503, path
            assert response.body["ErrorKind"] == "OverloadedError"
            assert response.body["RetryAfterMs"] >= 250
        # …while uploads and rule mutations keep landing (budgets 1000/2000).
        alice.upload_segments([make_segment(start_ms=MONDAY + HOUR)])
        alice.add_rule(Rule(consumers=("carol",), action=ALLOW))
        assert store.admission.brownout_level() == 3
        metrics = system.obs.metrics
        assert metrics.sum_counter("admission_shed_total", host="alice-store") == 3

    def test_sheds_drain_and_service_recovers(self):
        system, _, bob = build()
        flood(system, "alice-store", 150)
        with pytest.raises(OverloadedError) as excinfo:
            bob.fetch("alice")
        system.clock.advance(max(excinfo.value.retry_after_ms, 1))
        assert len(bob.fetch("alice")) > 0  # Retry-After was an honest hint

    def test_goodput_slo_accounts_served_and_shed(self):
        system, _, bob = build()
        served_floor = len(bob.fetch("alice"))
        assert served_floor > 0
        # 800ms of backlog: past even the cached-query budget (750ms), so
        # the warmed fetch sheds too and the SLO sees both sides.
        flood(system, "alice-store", 200)
        with pytest.raises(OverloadedError):
            bob.fetch("alice")
        goodput = system.obs.slo.report()["Goodput"]
        assert goodput["Served"] > 0
        assert goodput["Shed"] >= 1
        assert 0.0 < goodput["Goodput"] < 1.0
        assert goodput["ShedByClass"].get("query", 0) >= 1


class TestCachedReleasesUnderBrownout:
    def test_cached_query_served_while_cold_sheds(self):
        system, _, bob = build()
        warmed = bob.fetch("alice")  # caches the release for this shape
        assert len(warmed) > 0
        system.clock.advance(60_000)
        flood(system, "alice-store", 150)  # 600ms: cold 400 < here < cached 750
        # The warmed shape still serves from the release cache…
        again = bob.fetch("alice")
        assert [r.to_json() for r in again] == [r.to_json() for r in warmed]
        # …while a never-seen shape is a cold query and sheds.
        cold = DataQuery(time_range=Interval(MONDAY, MONDAY + HOUR))
        with pytest.raises(OverloadedError):
            bob.fetch("alice", query=cold)

    def test_cache_probe_is_fail_closed(self):
        from repro.net.http import Request

        system, _, bob = build()
        bob.fetch("alice")
        store = system.stores["alice-store"]
        key = bob.refresh_keys()["alice-store"]
        body = {"ApiKey": key, "Contributor": "alice", "Query": {}}

        def probe(body):
            return store._cache_would_hit(
                Request(method="POST", host="alice-store", path="/api/query",
                        body=body)
            )

        assert probe(body)  # the warmed release
        assert not probe({**body, "ApiKey": "bogus"})  # bad auth: cold
        assert not probe({**body, "Contributor": ""})  # malformed: cold
        assert not probe({**body, "Query": {"Nope": 1}})  # bad query: cold


class TestWebRevocationUnderBrownout:
    """OPERATIONS' promise — a revocation lands on a store that is shedding
    everything else — holds for the owner's web UI too: a page is admitted
    in the class of the handler it renders, not as a cold query."""

    def test_a_web_deny_is_control_and_bob_s_cached_release_is_gone(self):
        from repro.server.webui import DataStoreWebUI

        system, alice, bob = build()
        store = system.stores["alice-store"]
        DataStoreWebUI(store)
        assert len(bob.fetch("alice")) > 0  # bob's release is cached
        token = system.network.request(
            "POST", "https://alice-store/web/login", {"Username": "alice", "Password": "pw"}
        ).body["Token"]
        system.clock.advance(60_000)
        for _ in range(125):  # 125 owner flushes x 4ms = 500ms of upload backlog
            alice.flush()
        assert store.admission.queue_ms() == pytest.approx(500.0)
        deny = {"Token": token, "Form": {"consumers": "bob", "action": "Deny"}}
        response = system.network.request("POST", "https://alice-store/web/rules/submit", deny)
        assert response.status == 200, response.body
        assert store.admission.classify("POST", "/web/rules/submit") == "control"
        # The deny moved the rules epoch: bob's next query is cold, and sheds…
        with pytest.raises(OverloadedError):
            bob.fetch("alice")
        # …and once the backlog drains, it releases nothing.
        system.clock.advance(60_000)
        assert bob.fetch("alice") == []


class TestDeadlineRejection:
    def test_expired_deadline_rejected_before_rule_engine(self):
        system, _, bob = build()
        events = []
        store = system.stores["alice-store"]
        store.release_guards.append(events.append)
        flood(system, "alice-store", 30)  # 120ms backlog
        key = bob.refresh_keys()["alice-store"]
        response = system.network.request(
            "POST",
            "https://alice-store/api/query",
            {"ApiKey": key, "Contributor": "alice", "Query": {}},
            headers={"X-Deadline-Ms": "50"},
        )
        assert response.status == 504
        assert response.body["ErrorKind"] == "DeadlineExpiredError"
        assert "Released" not in response.body
        assert events == []  # the rule engine never ran
        # The same request with budget to spare releases normally.
        response = system.network.request(
            "POST",
            "https://alice-store/api/query",
            {"ApiKey": key, "Contributor": "alice", "Query": {}},
            headers={"X-Deadline-Ms": "5000"},
        )
        assert response.ok
        assert len(events) == 1

    def test_client_deadline_is_stamped_through(self):
        system, _, bob = build()
        flood(system, "alice-store", 30)
        key = bob.refresh_keys()["alice-store"]
        client = system.consumers["bob"].client.with_key(key)
        response = client.post(
            "https://alice-store/api/query",
            {"Contributor": "alice", "Query": {}},
            deadline_ms=50,
            raw=True,
        )
        assert response.status == 504


class TestBrokerToleratesOverload:
    def test_overloaded_primary_is_not_failed_over(self, tmp_path):
        system = SensorSafeSystem(seed=11, overload="enforce", retry=NO_RETRY)
        primary = system.create_replicated_store(
            "alice-store", directory=str(tmp_path), n_replicas=1
        )
        alice = system.add_contributor("alice", store=primary)
        alice.add_rule(Rule(consumers=("bob",), action=ALLOW))
        alice.upload_segments([make_segment()])
        alice.flush()
        system.clock.advance(60_000)
        # Shrink every budget so a handful of requests is an overload.
        primary.admission.config = OverloadConfig(
            queue_budget_ms={cls: 10.0 for cls in BROWNOUT_ORDER},
            cached_query_budget_ms=10.0,
        )
        flood(system, "alice-store", 10, path="/api/rules/list")
        assert primary.admission.queue_ms() > 10.0
        # Health probes now shed with a typed 503 — which must read as
        # *alive*, for miss_threshold rounds and beyond.
        manager = system.broker.failover
        for _ in range(manager.miss_threshold + 1):
            report = manager.heartbeat()["alice-store"]
            assert report["FailedOver"] is None
            assert report["Health"]["alice-store"]["Alive"]
            assert report["Health"]["alice-store"]["Missed"] == 0
        assert system.broker.registry.get("alice").host == "alice-store"
        # Once the burst drains, probes flow normally again.
        system.clock.advance(60_000)
        report = manager.heartbeat()["alice-store"]
        assert report["FailedOver"] is None
        assert report["Health"]["alice-store"]["Alive"]


def tick(system, rate_per_s, duration_ms, send):
    """Call ``send`` at ``rate_per_s`` for ``duration_ms`` of simulated time.

    The clock advances one millisecond per step, as live traffic lets it:
    the backlog drains between arrivals instead of piling up at one
    frozen instant.
    """
    per_ms, credit, answers = rate_per_s / 1000.0, 0.0, []
    for _ in range(duration_ms):
        system.clock.advance(1)
        credit += per_ms
        while credit >= 1.0:
            credit -= 1.0
            answers.append(send())
    return answers


class TestAdmissionWithTheClockRunning:
    """A request sheds only when the backlog at its arrival is past its
    class's budget (or its caller's deadline): nothing else decides."""

    def test_a_cached_release_outlives_a_cold_storm(self):
        system, _, bob = build()
        warmed = bob.fetch("alice")
        key = bob.refresh_keys()["alice-store"]
        store = system.stores["alice-store"]
        shapes = iter(range(100_000, 200_000))

        def cold_query():  # a fresh Limit each time: always a cache miss
            return system.network.request(
                "POST", "https://alice-store/api/query",
                {"ApiKey": key, "Contributor": "alice",
                 "Query": {"Limit": next(shapes)}},
            )

        answers = tick(system, 300, 3_000, cold_query)  # 1.5x cold capacity
        assert any(answer.status == 503 for answer in answers)
        # The backlog sits near the cold budget (400ms), well inside the
        # cached one (750ms): the warmed shape still serves.
        assert store.admission.queue_ms() <= 750
        again = bob.fetch("alice")
        assert [r.to_json() for r in again] == [r.to_json() for r in warmed]

    def test_uploads_at_1_2x_capacity_never_shed(self):
        system, _, _ = build()
        store = system.stores["alice-store"]
        answers = tick(system, 300, 3_000, lambda: system.network.request(
            "POST", "https://alice-store/api/upload", {}
        ))  # 300/s x 4ms: the backlog grows 0.2ms per ms, to ~600ms
        assert store.admission.queue_ms() <= 1_000
        assert [answer.status for answer in answers if answer.status == 503] == []

    def test_a_mixed_storm_sheds_exactly_past_each_budget(self):
        system, _, bob = build()
        bob.fetch("alice")  # the cached shape below
        key = bob.refresh_keys()["alice-store"]
        admission = system.stores["alice-store"].admission
        kinds = {  # kind -> (path, body, served from the release cache)
            "control": ("/api/rules/list", {}, False),
            "replication": ("/api/replicate/append", {}, False),
            "upload": ("/api/upload", {}, False),
            "cold": ("/api/query", {}, False),
            "cached": (
                "/api/query", {"ApiKey": key, "Contributor": "alice", "Query": {}}, True
            ),
            "aggregate": ("/api/aggregate", {}, False),
            "scrape": ("/api/stats", {}, False),
        }
        rng = random.Random(40)
        rates = [0, 1_000, 2_000, 4_000, 10_000, 10_000]  # per simulated second
        rng.shuffle(rates)
        seen = {kind: {"admitted": 0, "shed": 0} for kind in kinds}

        def arrive():
            kind = rng.choice(sorted(kinds))
            path, body, cached = kinds[kind]
            budget = admission.config.queue_budget(
                admission.classify("POST", path), cached
            )
            backlog = admission.queue_ms()
            answer = system.network.request("POST", f"https://alice-store{path}", body)
            shed = answer.status == 503
            assert shed == (answer.body.get("ErrorKind") == "OverloadedError"), kind
            assert shed == (backlog > budget), (kind, backlog, budget, answer.body)
            if cached and not shed:
                assert answer.ok, answer.body
            seen[kind]["shed" if shed else "admitted"] += 1

        for rate in rates:
            tick(system, rate, 500, arrive)
        # The storm reached past every budget, and under it too.
        assert all(count["admitted"] and count["shed"] for count in seen.values()), seen
