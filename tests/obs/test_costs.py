"""Per-query cost attribution and the bounded slow-query log."""

import pytest

from repro.datastore.aggregate import AggregateSpec
from repro.datastore.query import DataQuery
from repro.obs import Observability
from repro.obs.costs import QueryCostLog
from repro.rules.model import ALLOW, Rule

from tests.conftest import make_segment


@pytest.fixture()
def wired(system):
    alice = system.add_contributor("alice")
    alice.upload_segments([make_segment(n=16)])
    alice.flush()
    alice.add_rule(Rule(consumers=("bob",), action=ALLOW))
    bob = system.add_consumer("bob")
    bob.add_contributors(["alice"])
    return system, alice, bob


class TestCostAttribution:
    def test_consumer_query_produces_a_cost_record(self, wired):
        system, _, bob = wired
        costs = system.obs.costs
        bob.fetch("alice", DataQuery())
        record = costs._recent[-1]
        assert record.endpoint == "/api/query"
        assert record.store == "alice-store"
        assert record.consumer == "bob"
        assert record.contributor == "alice"
        assert record.rules_evaluated > 0
        assert record.segments_scanned > 0
        assert record.segments_released > 0
        assert record.released_bytes > 0
        assert record.duration_us > 0

    def test_record_trace_id_matches_the_audit_trail(self, wired):
        system, _, bob = wired
        bob.fetch("alice", DataQuery())
        record = system.obs.costs._recent[-1]
        audit = system.stores["alice-store"].audit.trail_of("alice")[-1]
        assert record.trace_id == audit.trace_id != ""

    def test_warm_query_is_attributed_to_the_decision_cache(self, wired):
        system, _, bob = wired
        bob.fetch("alice", DataQuery())
        cold = system.obs.costs._recent[-1]
        bob.fetch("alice", DataQuery())
        warm = system.obs.costs._recent[-1]
        assert not cold.decision_cache_hit
        assert warm.decision_cache_hit
        assert warm.rules_evaluated == 0  # the cache answered, not the engine

    def test_owner_raw_read_is_costed_too(self, wired):
        system, alice, _ = wired
        alice.view_data()
        record = system.obs.costs._recent[-1]
        assert record.endpoint == "/api/query"
        assert record.consumer == "alice" == record.contributor
        assert record.segments_released > 0

    def test_aggregate_endpoint_is_costed(self, wired):
        system, _, bob = wired
        bob.fetch_aggregate("alice", AggregateSpec("mean", 60_000))
        record = system.obs.costs._recent[-1]
        assert record.endpoint == "/api/aggregate"
        assert record.consumer == "bob"

    def test_owner_aggregate_is_costed_as_what_it_scanned(self, wired):
        """Same accounting as the owner's raw query; the audit entry says
        nothing was *released* either way."""
        system, alice, _ = wired
        alice.view_data()
        query = system.obs.costs._recent[-1]
        alice.client.post(
            "https://alice-store/api/aggregate",
            {"Contributor": "alice", "Aggregate": AggregateSpec("mean", 60_000).to_json()},
        )
        aggregate = system.obs.costs._recent[-1]
        assert aggregate.endpoint == "/api/aggregate"
        assert aggregate.segments_released == query.segments_released > 0
        assert aggregate.released_bytes == query.released_bytes > 0
        audit = system.stores["alice-store"].audit.trail_of("alice")[-1]
        assert audit.raw_access and audit.pieces_released == audit.samples_released == 0

    def test_counters_and_histograms_move(self, wired):
        system, _, bob = wired
        before = system.obs.metrics.counter_value(
            "query_cost_records_total", store="alice-store"
        )
        bob.fetch("alice", DataQuery())
        after = system.obs.metrics.counter_value(
            "query_cost_records_total", store="alice-store"
        )
        assert after == before + 1
        hist = system.obs.metrics.histogram("query_cost_us", store="alice-store")
        assert hist.count >= 1


class TestSlowQueryLog:
    def test_slow_log_is_bounded_and_sorted_desc(self):
        obs = Observability()
        log = QueryCostLog(obs, slow_k=4)
        for _ in range(20):
            token = log.start("s")
            log.finish(token, endpoint="/api/query")
        slow = log.slow_queries(with_traces=False)
        assert len(slow) == 4
        durations = [entry["DurationUs"] for entry in slow]
        assert durations == sorted(durations, reverse=True)

    def test_slow_entry_carries_its_exemplar_trace_tree(self, wired):
        system, _, bob = wired
        bob.fetch("alice", DataQuery())
        slow = system.obs.costs.slow_queries(limit=1)
        assert slow
        tree = slow[0]["TraceTree"]
        names = [node["Name"] for node in tree]
        assert "rules.evaluate" in names
        assert all("Depth" in node for node in tree)

    def test_recent_ring_is_bounded(self):
        obs = Observability()
        log = QueryCostLog(obs, ring_capacity=8)
        for _ in range(20):
            log.finish(log.start("s"), endpoint="/api/query")
        assert len(log.recent(limit=100)) == 8

    def test_reset_drops_records(self, wired):
        system, _, bob = wired
        bob.fetch("alice", DataQuery())
        system.obs.costs.reset()
        assert system.obs.costs.slow_queries() == []
        assert system.obs.costs.recent() == []


class TestDisabledHub:
    def test_start_finish_noop_when_disabled(self):
        obs = Observability(enabled=False)
        log = QueryCostLog(obs)
        token = log.start("s")
        assert token is None
        assert log.finish(token, endpoint="/api/query") is None
        assert log.recent() == []
