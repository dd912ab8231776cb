"""Tests for the span tracer: lifecycle, propagation, trees, export."""

from repro.obs.tracing import TRACEPARENT, Tracer


def make_tracer():
    from repro.net.faults import SimClock

    return Tracer(clock=SimClock())


class TestSpanLifecycle:
    def test_nested_spans_share_a_trace(self):
        tracer = make_tracer()
        with tracer.start_span("outer") as outer:
            with tracer.start_span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        assert len(tracer.finished) == 2

    def test_sibling_roots_get_distinct_traces(self):
        tracer = make_tracer()
        with tracer.start_span("a") as a:
            pass
        with tracer.start_span("b") as b:
            pass
        assert a.trace_id != b.trace_id

    def test_ids_are_deterministic(self):
        first, second = make_tracer(), make_tracer()
        with first.start_span("x") as a, second.start_span("x") as b:
            assert a.trace_id == b.trace_id == "trace-000001"
            assert a.span_id == b.span_id == "span-000001"

    def test_exception_marks_span_error(self):
        tracer = make_tracer()
        try:
            with tracer.start_span("boom"):
                raise ValueError("nope")
        except ValueError:
            pass
        span = tracer.finished[-1]
        assert span.status == "error"
        assert "ValueError" in span.attributes["error_message"]

    def test_durations_wall_and_simulated(self):
        tracer = make_tracer()
        with tracer.start_span("timed"):
            tracer.clock.advance(250)
        span = tracer.finished[-1]
        assert span.duration_sim_ms == 250
        assert span.duration_us >= 0.0

    def test_span_cap_counts_drops(self):
        tracer = Tracer(max_spans=2)
        for _ in range(4):
            with tracer.start_span("s"):
                pass
        assert len(tracer.finished) == 2
        assert tracer.dropped_spans == 2

    def test_disabled_tracer_hands_out_noop(self):
        tracer = Tracer(enabled=False)
        with tracer.start_span("ignored") as span:
            span.set_attribute("k", "v")
            span.set_attributes(n=1)
            span.set_error("boom")
        assert tracer.finished == []
        assert tracer.current_trace_id() == ""
        # The no-op span is shared by every disabled tracer: nothing sticks.
        assert span.attributes == {} and span.status == "ok"


class TestPropagation:
    def test_inject_extract_roundtrip(self):
        tracer = make_tracer()
        with tracer.start_span("client"):
            headers = tracer.inject({})
            assert TRACEPARENT in headers
        context = Tracer.extract(headers)
        assert context == (tracer.finished[-1].trace_id, tracer.finished[-1].span_id)

    def test_remote_parent_joins_the_trace(self):
        client, server = make_tracer(), make_tracer()
        with client.start_span("send"):
            headers = client.inject({})
        with server.start_span("serve", remote_parent=Tracer.extract(headers)) as span:
            assert span.trace_id == client.finished[-1].trace_id

    def test_extract_tolerates_garbage(self):
        assert Tracer.extract(None) is None
        assert Tracer.extract({}) is None
        assert Tracer.extract({TRACEPARENT: "malformed"}) is None
        assert Tracer.extract({TRACEPARENT: "/x"}) is None

    def test_inject_outside_any_span_is_noop(self):
        assert make_tracer().inject({}) == {}


class TestTreesAndExport:
    def test_trace_tree_depths(self):
        tracer = make_tracer()
        with tracer.start_span("root"):
            with tracer.start_span("child"):
                with tracer.start_span("grandchild"):
                    pass
            with tracer.start_span("sibling"):
                pass
        trace_id = tracer.finished[-1].trace_id
        tree = [(depth, span.name) for depth, span in tracer.trace_tree(trace_id)]
        assert tree == [(0, "root"), (1, "child"), (2, "grandchild"), (1, "sibling")]

    def test_orphan_spans_become_roots(self):
        tracer = make_tracer()
        with tracer.start_span("serve", remote_parent=("trace-x", "span-gone")):
            pass
        tree = tracer.trace_tree("trace-x")
        assert [(d, s.name) for d, s in tree] == [(0, "serve")]

    def test_export_groups_by_trace(self):
        tracer = make_tracer()
        with tracer.start_span("a"):
            pass
        with tracer.start_span("b"):
            pass
        dump = tracer.export_json()
        assert set(dump["Traces"]) == {"trace-000001", "trace-000002"}
        assert dump["DroppedSpans"] == 0

    def test_reset_clears_finished_only(self):
        tracer = make_tracer()
        with tracer.start_span("a"):
            pass
        tracer.reset()
        assert tracer.finished == []
        with tracer.start_span("b") as span:
            assert span.trace_id == "trace-000002"  # ids keep advancing
