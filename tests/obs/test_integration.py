"""End-to-end observability: one query, one trace tree, stamped audit."""

import pytest

from repro.core import SensorSafeSystem
from repro.datastore.query import DataQuery
from repro.net.faults import FaultPlan
from repro.net.resilience import NO_RETRY
from repro.rules.model import ALLOW, Rule

from tests.conftest import make_segment


@pytest.fixture()
def wired(system):
    alice = system.add_contributor("alice")
    alice.upload_segments([make_segment(channels=("ECG", "AccelX"), n=16)])
    alice.flush()
    alice.add_rule(Rule(consumers=("bob",), action=ALLOW))
    bob = system.add_consumer("bob")
    bob.add_contributors(["alice"])
    return system, alice, bob


class TestQueryTrace:
    def test_one_query_yields_one_trace_tree(self, wired):
        system, _, bob = wired
        tracer = system.obs.tracer
        tracer.reset()
        bob.fetch("alice", DataQuery())

        record = system.stores["alice-store"].audit.trail_of("alice")[-1]
        assert record.trace_id  # the audit record names its trace

        tree = tracer.trace_tree(record.trace_id)
        names = [span.name for _, span in tree]
        # The whole request path is in ONE tree: client -> network ->
        # store handler internals.
        assert "client.send" in names
        assert "net.request" in names
        assert "store.scan" in names
        assert "rules.evaluate" in names

        roots = [span for depth, span in tree if depth == 0]
        assert [r.name for r in roots] == ["client.send"]
        by_id = {span.span_id: span for _, span in tree}
        net = next(s for _, s in tree if s.name == "net.request")
        assert by_id[net.parent_id].name == "client.send"
        for name in ("store.scan", "rules.evaluate"):
            span = next(s for _, s in tree if s.name == name)
            assert by_id[span.parent_id].name == "net.request"

    def test_separate_queries_get_separate_traces(self, wired):
        system, _, bob = wired
        bob.fetch("alice", DataQuery())
        bob.fetch("alice", DataQuery())
        trail = system.stores["alice-store"].audit.trail_of("alice")
        assert trail[-2].trace_id != trail[-1].trace_id

    def test_release_event_carries_trace_id(self, wired):
        system, _, bob = wired
        events = []
        system.stores["alice-store"].release_guards.append(events.append)
        bob.fetch("alice", DataQuery())
        record = system.stores["alice-store"].audit.trail_of("alice")[-1]
        assert events[-1].trace_id == record.trace_id != ""

    def test_owner_raw_read_is_stamped_too(self, wired):
        system, alice, _ = wired
        alice.view_data()
        record = system.stores["alice-store"].audit.trail_of("alice")[-1]
        assert record.raw_access
        assert record.trace_id

    def test_audit_record_json_roundtrip_with_trace(self, wired):
        system, _, bob = wired
        bob.fetch("alice", DataQuery())
        record = system.stores["alice-store"].audit.trail_of("alice")[-1]
        from repro.server.audit import AuditRecord

        again = AuditRecord.from_json(record.to_json())
        assert again.trace_id == record.trace_id
        # Back-compat: records persisted before tracing load with "".
        legacy = dict(record.to_json())
        del legacy["TraceId"]
        assert AuditRecord.from_json(legacy).trace_id == ""


class TestMetricsEndpoint:
    def test_store_and_broker_expose_api_metrics(self, wired):
        system, alice, _ = wired
        body = alice.client.get("https://alice-store/api/metrics")
        assert body["Host"] == "alice-store"
        counters = body["Metrics"]["Counters"]
        assert any(s["Value"] > 0 for s in counters["net_requests_total"])
        body = alice.client.get("https://broker/api/metrics")
        assert body["Host"] == "broker"

    def test_samples_per_segment_is_readable_from_the_scrape(self, wired):
        system, alice, _ = wired
        gauges = alice.client.get("https://alice-store/api/metrics")["Metrics"]["Gauges"]
        by_name = {
            name: {s["Labels"]["store"]: s["Value"] for s in gauges[name]}
            for name in ("store_segments", "store_samples")
        }
        assert by_name["store_segments"]["alice-store"] == 1
        assert by_name["store_samples"]["alice-store"] == 16
        scraped = system.broker.fleet.scrape()["Hosts"]["alice-store"]["Metrics"]["Gauges"]
        assert scraped["store_samples"][0]["Value"] == 16

    def test_query_moves_the_rule_counters(self, wired):
        system, _, bob = wired
        registry = system.obs.metrics
        before = registry.counter_value("rule_evaluations_total")
        bob.fetch("alice", DataQuery())
        assert registry.counter_value("rule_evaluations_total") == before + 1
        assert registry.sum_counter("store_segments_scanned_total") > 0


class TestStatusClassCounters:
    def test_5xx_fault_injection_is_visible(self):
        plan = FaultPlan(seed=3)
        plan.add_error("alice-store", path="/api/query", status=503, rate=1.0)
        system = SensorSafeSystem(seed=7, fault_plan=plan, retry=NO_RETRY)
        alice = system.add_contributor("alice")
        alice.upload_segments([make_segment(n=8)])
        alice.flush()
        alice.add_rule(Rule(consumers=("bob",), action=ALLOW))
        bob = system.add_consumer("bob")
        bob.add_contributors(["alice"])

        from repro.exceptions import ServiceError

        with pytest.raises(ServiceError):
            bob.fetch("alice", DataQuery())

        metrics = system.network.metrics_of("alice-store")
        assert metrics.status_class("5xx") >= 1
        assert system.obs.metrics.sum_counter(
            "net_responses_total", host="alice-store", status_class="5xx"
        ) >= 1


class TestPhoneInstruments:
    def test_offline_queue_gauge_and_drop_counter(self):
        from repro.collection.phone import PhoneConfig

        plan = FaultPlan(seed=3)
        plan.add_drop("alice-store", path="/api/upload_packets", rate=1.0)
        system = SensorSafeSystem(seed=7, fault_plan=plan, retry=NO_RETRY)
        alice = system.add_contributor("alice")
        phone = alice.phone(PhoneConfig(offline_queue_packets=4))
        from repro.sensors.packets import SensorPacket

        packets = [
            SensorPacket("ECG", start_ms=i * 1000, interval_ms=125, values=(1.0,) * 8)
            for i in range(10)
        ]
        phone.upload(packets)
        registry = system.obs.metrics
        depth = registry.gauge("phone_offline_queue_depth", contributor="alice")
        assert depth.value == 4  # capped queue
        assert (
            registry.counter_value("phone_packets_dropped_total", contributor="alice")
            == 6
        )
