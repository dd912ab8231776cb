"""Tests for admission control and brownout."""

import pytest

from repro.exceptions import DeadlineExpiredError, OverloadedError
from repro.net.faults import SimClock
from repro.net.http import Request, Router, json_response
from repro.net.overload import (
    BROWNOUT_ORDER,
    CLASS_AGGREGATE,
    CLASS_CONTROL,
    CLASS_QUERY,
    CLASS_SCRAPE,
    CLASS_UPLOAD,
    GOODPUT_CLASSES,
    AdmissionController,
    OverloadConfig,
)
from repro.net.transport import Network
from repro.server.broker_service import BrokerService
from repro.server.datastore_service import DataStoreService


def declared_classes(service_type) -> dict:
    """``"METHOD path"`` -> admission class, as a service's routes declare."""
    return {
        f"{member.route.method} {member.route.path}": member.route.admission
        for member in vars(service_type).values()
        if hasattr(member, "route")
    }


STORE_ROUTE_CLASSES = declared_classes(DataStoreService)


def make_controller(mode="enforce", *, clock=None, config=None, cache_probe=None):
    network = Network(clock=clock or SimClock())
    controller = AdmissionController(
        "store",
        network,
        mode=mode,
        config=config,
        classes=STORE_ROUTE_CLASSES,
        cache_probe=cache_probe,
    )
    return network, controller


def req(path, *, method="POST", deadline_ms=None):
    headers = {}
    if deadline_ms is not None:
        headers["X-Deadline-Ms"] = str(deadline_ms)
    return Request(method=method, host="store", path=path, headers=headers)


class TestOverloadConfig:
    def test_cached_query_is_cheaper_and_more_tolerant(self):
        cfg = OverloadConfig()
        assert cfg.service_cost(CLASS_QUERY, cached=True) < cfg.service_cost(
            CLASS_QUERY, cached=False
        )
        assert cfg.queue_budget(CLASS_QUERY, cached=True) > cfg.queue_budget(
            CLASS_QUERY, cached=False
        )

    def test_budgets_implement_the_brownout_ladder(self):
        cfg = OverloadConfig()
        budgets = [cfg.queue_budget(cls, cached=False) for cls in BROWNOUT_ORDER]
        assert budgets == sorted(budgets)  # shed-first classes tolerate least

    def test_unknown_mode_rejected(self):
        for mode in ("panic", "off"):
            with pytest.raises(ValueError):
                make_controller(mode=mode)

    def test_route_tables_cover_known_classes(self):
        known = set(BROWNOUT_ORDER)
        assert set(STORE_ROUTE_CLASSES.values()) <= known
        assert set(declared_classes(BrokerService).values()) <= known
        assert set(GOODPUT_CLASSES) <= known
        assert CLASS_SCRAPE not in GOODPUT_CLASSES


class TestAdmissionController:
    def test_classify_is_the_declared_route_table(self):
        _, controller = make_controller()
        assert controller.classify("POST", "/api/rules/add") == CLASS_CONTROL
        assert controller.classify("POST", "/api/upload") == CLASS_UPLOAD
        assert controller.classify("POST", "/api/stats") == CLASS_SCRAPE
        with pytest.raises(KeyError):  # no default: an undeclared route is a bug
            controller.classify("POST", "/api/not-a-route")

    def test_virtual_backlog_accumulates_and_drains(self):
        clock = SimClock()
        _, controller = make_controller(clock=clock)
        for _ in range(10):
            controller.gate(req("/api/query"))  # 5ms each
        assert controller.queue_ms() == pytest.approx(50.0)
        clock.advance(25)
        assert controller.queue_ms() == pytest.approx(25.0)
        clock.advance(100)
        assert controller.queue_ms() == 0.0

    def test_brownout_sheds_in_priority_order(self):
        clock = SimClock()
        _, controller = make_controller(clock=clock)
        # 300ms of backlog: past scrape (100) and aggregate (200) budgets,
        # inside cold-query (400), upload (1000), and control (2000).
        for _ in range(60):
            controller.gate(req("/api/query"))
        assert controller.queue_ms() == pytest.approx(300.0)
        with pytest.raises(OverloadedError):
            controller.gate(req("/api/stats"))
        with pytest.raises(OverloadedError):
            controller.gate(req("/api/aggregate"))
        assert controller.gate(req("/api/query")) == CLASS_QUERY
        assert controller.gate(req("/api/upload")) == CLASS_UPLOAD
        assert controller.gate(req("/api/rules/add")) == CLASS_CONTROL
        assert controller.brownout_level() == 2

    def test_shed_adds_no_work(self):
        _, controller = make_controller()
        for _ in range(60):
            controller.gate(req("/api/query"))
        backlog = controller.queue_ms()
        for _ in range(50):
            with pytest.raises(OverloadedError):
                controller.gate(req("/api/aggregate"))
        assert controller.queue_ms() == backlog

    def test_retry_after_hint_scales_with_backlog(self):
        _, controller = make_controller()
        for _ in range(150):
            controller.gate(req("/api/upload"))  # 600ms backlog (4ms each)
        with pytest.raises(OverloadedError) as excinfo:
            controller.gate(req("/api/aggregate"))
        # 600ms backlog vs a 200ms budget: come back in ~400ms.
        assert excinfo.value.retry_after_ms == 400
        assert excinfo.value.body_fields() == {"RetryAfterMs": 400}

    def test_expired_deadline_rejected_with_504(self):
        _, controller = make_controller()
        for _ in range(20):
            controller.gate(req("/api/query"))  # 100ms backlog
        # Inside the query budget, but the caller only has 50ms left.
        with pytest.raises(DeadlineExpiredError):
            controller.gate(req("/api/query", deadline_ms=50))
        assert controller.gate(req("/api/query", deadline_ms=500)) == CLASS_QUERY

    def test_malformed_deadline_header_ignored(self):
        _, controller = make_controller()
        request = req("/api/query")
        request.headers["X-Deadline-Ms"] = "soon"
        assert controller.gate(request) == CLASS_QUERY

    def test_cached_queries_survive_deeper_brownout(self):
        hits = {"cached": False}
        _, controller = make_controller(cache_probe=lambda request: hits["cached"])
        for _ in range(150):
            controller.gate(req("/api/upload"))  # 600ms: past the cold budget
        with pytest.raises(OverloadedError):
            controller.gate(req("/api/query"))
        hits["cached"] = True
        assert controller.gate(req("/api/query")) == CLASS_QUERY

    def test_observe_mode_admits_but_counts_would_sheds(self):
        network, controller = make_controller(mode="observe")
        for _ in range(60):
            controller.gate(req("/api/query"))
        assert controller.gate(req("/api/stats")) == CLASS_SCRAPE  # admitted
        metrics = network.obs.metrics
        assert metrics.sum_counter(
            "admission_would_shed_total", **{"class": CLASS_SCRAPE}
        ) == 1
        assert metrics.sum_counter("admission_shed_total") == 0

    def test_shed_metrics_labelled_by_class_and_reason(self):
        network, controller = make_controller()
        for _ in range(60):
            controller.gate(req("/api/query"))
        with pytest.raises(OverloadedError):
            controller.gate(req("/api/stats"))
        with pytest.raises(DeadlineExpiredError):
            controller.gate(req("/api/query", deadline_ms=1))
        metrics = network.obs.metrics
        assert metrics.counter_value(
            "admission_shed_total",
            **{"host": "store", "class": CLASS_SCRAPE, "reason": "queue"},
        ) == 1
        assert metrics.counter_value(
            "admission_shed_total",
            **{"host": "store", "class": CLASS_QUERY, "reason": "deadline"},
        ) == 1
        assert metrics.sum_counter("admission_requests_total") == 62


class TestRouterIntegration:
    def make_service(self, mode="enforce"):
        clock = SimClock()
        network = Network(clock=clock)
        router = Router()
        router.add("POST", "/api/query", lambda r: {"Released": []})
        router.add("POST", "/api/stats", lambda r: {"Ok": True})
        network.register_host("store", router)
        controller = AdmissionController(
            "store", network, mode=mode, classes=STORE_ROUTE_CLASSES
        )
        controller.attach(router)
        return network, controller

    def test_shed_maps_to_typed_503_with_retry_hint(self):
        network, controller = self.make_service()
        for _ in range(60):
            network.request("POST", "https://store/api/query", {})
        response = network.request("POST", "https://store/api/stats", {})
        assert response.status == 503
        assert response.body["ErrorKind"] == "OverloadedError"
        assert response.body["RetryAfterMs"] >= 250
        assert "Ok" not in response.body  # the handler never ran

    def test_expired_deadline_maps_to_typed_504(self):
        network, _ = self.make_service()
        for _ in range(60):
            network.request("POST", "https://store/api/query", {})
        response = network.request(
            "POST", "https://store/api/query", {}, headers={"X-Deadline-Ms": "3"}
        )
        assert response.status == 504
        assert response.body["ErrorKind"] == "DeadlineExpiredError"
        assert "Released" not in response.body

    def test_served_counted_only_on_success(self):
        network, _ = self.make_service()
        for _ in range(3):
            assert network.request("POST", "https://store/api/query", {}).ok
        metrics = network.obs.metrics
        assert metrics.sum_counter(
            "admission_served_total", **{"class": CLASS_QUERY}
        ) == 3
        assert metrics.sum_counter(
            "admission_served_total", **{"class": CLASS_SCRAPE}
        ) == 0
