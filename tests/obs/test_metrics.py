"""Tests for the metrics registry: counters, gauges, histograms."""

import pytest

from repro.exceptions import SensorSafeError
from repro.obs.metrics import InertRegistry, MetricsRegistry


class TestCounters:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("requests_total", host="store")
        b = registry.counter("requests_total", host="store")
        assert a is b
        a.inc(3)
        assert b.value == 3

    def test_label_sets_are_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", host="a").inc(1)
        registry.counter("requests_total", host="b").inc(2)
        assert registry.counter_value("requests_total", host="a") == 1
        assert registry.counter_value("requests_total", host="b") == 2

    def test_counter_cannot_decrease(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("requests_total").inc(-1)

    def test_sum_counter_over_label_subset(self):
        registry = MetricsRegistry()
        registry.counter("responses_total", host="s", status_class="2xx").inc(5)
        registry.counter("responses_total", host="s", status_class="5xx").inc(2)
        registry.counter("responses_total", host="t", status_class="5xx").inc(1)
        assert registry.sum_counter("responses_total", host="s") == 7
        assert registry.sum_counter("responses_total", status_class="5xx") == 3
        assert registry.sum_counter("responses_total") == 8

    def test_missing_series_reads_zero(self):
        assert MetricsRegistry().counter_value("nope") == 0


class TestGauges:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(5)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == 4

    def test_callback_gauge_reads_live_value(self):
        backlog = [1, 2, 3]
        registry = MetricsRegistry()
        registry.gauge("queue_depth", callback=lambda: len(backlog))
        assert registry.gauge("queue_depth").value == 3
        backlog.pop()
        assert registry.gauge("queue_depth").value == 2

    def test_late_callback_attaches_to_existing_gauge(self):
        registry = MetricsRegistry()
        registry.gauge("depth")
        registry.gauge("depth", callback=lambda: 9)
        assert registry.gauge("depth").value == 9

    def test_a_new_callback_replaces_the_old_owner(self):
        registry = MetricsRegistry()
        registry.gauge("wal_size_bytes", callback=lambda: 0, store="s")
        registry.gauge("wal_size_bytes", callback=lambda: 1727, store="s")
        assert registry.gauge_value("wal_size_bytes", store="s") == 1727
        registry.gauge("wal_size_bytes", store="s")  # a read keeps the owner
        assert registry.gauge_value("wal_size_bytes", store="s") == 1727


class TestHistograms:
    def test_count_sum_min_max_mean(self):
        histogram = MetricsRegistry().histogram("latency_us")
        for v in (10.0, 20.0, 30.0):
            histogram.observe(v)
        assert histogram.count == 3
        assert histogram.total == 60.0
        assert histogram.min == 10.0 and histogram.max == 30.0
        assert histogram.mean == 20.0

    def test_percentiles_nearest_rank(self):
        histogram = MetricsRegistry().histogram("latency_us")
        for v in range(1, 101):
            histogram.observe(float(v))
        assert histogram.percentile(50) == pytest.approx(50.0, abs=1.0)
        assert histogram.percentile(95) == pytest.approx(95.0, abs=1.0)
        assert histogram.percentile(99) == pytest.approx(99.0, abs=1.0)

    def test_sample_buffer_bounded_but_count_exact(self):
        from repro.obs.metrics import Histogram

        histogram = Histogram("h", {}, max_samples=10)
        for v in range(100):
            histogram.observe(float(v))
        assert histogram.count == 100
        assert len(histogram._samples) == 10

    def test_empty_histogram_dumps_zeroes(self):
        dump = MetricsRegistry().histogram("latency_us").to_json()
        assert dump["Count"] == 0 and dump["Min"] == 0.0 and dump["P99"] == 0.0


class TestRegistry:
    def test_snapshot_groups_by_kind_and_name(self):
        registry = MetricsRegistry()
        registry.counter("a_total", host="x").inc()
        registry.gauge("b_depth").set(2)
        registry.histogram("c_us").observe(1.0)
        snapshot = registry.snapshot()
        assert snapshot["Counters"]["a_total"][0]["Value"] == 1
        assert snapshot["Gauges"]["b_depth"][0]["Value"] == 2
        assert snapshot["Histograms"]["c_us"][0]["Count"] == 1

    def test_reset_is_in_place_and_prefix_scoped(self):
        registry = MetricsRegistry()
        net = registry.counter("net_requests_total")
        rule = registry.counter("rule_evaluations_total")
        net.inc(5)
        rule.inc(5)
        registry.reset("net_")
        # The bound reference stays valid and reads zero...
        assert net.value == 0
        assert registry.counter_value("net_requests_total") == 0
        # ...and instruments outside the prefix are untouched.
        assert rule.value == 5

    def test_labels_pass_redaction_check(self):
        registry = MetricsRegistry()
        with pytest.raises(SensorSafeError):
            registry.counter("requests_total", host=34.0689)

    def test_series_spans_instrument_kinds(self):
        registry = MetricsRegistry()
        registry.counter("x", host="a")
        registry.gauge("x", host="b")
        assert len(registry.series("x")) == 2


class TestInertRegistry:
    def test_writes_do_nothing_and_reads_answer_empty(self):
        registry = InertRegistry()
        counter = registry.counter("requests_total", host="a")
        counter.inc(3)
        gauge = registry.gauge("depth", callback=lambda: 9)
        gauge.set(5)
        gauge.inc()
        histogram = registry.histogram("latency_us")
        histogram.observe(1.0)
        assert counter.value == 0
        assert gauge.value == 0.0 and gauge.callback is None
        assert histogram.count == 0 and histogram.percentile(99) == 0.0
        assert registry.counter_value("requests_total", host="a") == 0
        assert registry.snapshot() == {"Counters": {}, "Gauges": {}, "Histograms": {}}

    def test_instruments_are_shared(self):
        a, b = InertRegistry(), InertRegistry()
        assert a.counter("x") is b.counter("y", host="z")
        assert a.histogram("x") is b.histogram("y")
