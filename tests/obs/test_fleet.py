"""Fleet aggregation: per-host scrape, tombstoning, failover telemetry."""

import pytest

from tests.conftest import MONDAY, make_segment
from repro.core.system import SensorSafeSystem
from repro.datastore.query import DataQuery
from repro.net.client import HttpClient
from repro.obs.fleet import owned_metrics, series_owner, unowned_metrics
from repro.rules.model import ALLOW, Rule

ALLOW_BOB = Rule(consumers=("bob",), action=ALLOW)


def replicated_system(tmp_path, *, n_replicas=1):
    system = SensorSafeSystem(seed=7)
    primary = system.create_replicated_store(
        "alice-store", directory=str(tmp_path), n_replicas=n_replicas
    )
    alice = system.add_contributor("alice", store=primary)
    bob = system.add_consumer("bob")
    bob.add_contributors(["alice"])
    alice.add_rule(ALLOW_BOB)
    return system, alice, bob


def detect_and_fail_over(system, set_name="alice-store"):
    report = None
    for _ in range(system.broker.failover.miss_threshold):
        system.clock.advance(2_000)
        report = system.broker.failover.heartbeat()
    return report[set_name]["FailedOver"]


class TestSeriesOwnership:
    def test_store_and_host_labels_attribute_a_series(self):
        assert series_owner({"store": "alice-store"}) == "alice-store"
        assert series_owner({"host": "broker"}) == "broker"
        assert series_owner({"consumer": "bob"}) is None
        assert series_owner({}) is None

    def test_owned_and_unowned_partition_a_scrape(self, system):
        alice = system.add_contributor("alice")
        alice.upload_segments([make_segment()])
        alice.flush()
        metrics = system.obs.metrics.snapshot()
        owned = owned_metrics(metrics, "alice-store")
        for series in owned["Counters"].values():
            for row in series:
                assert series_owner(row["Labels"]) == "alice-store"
        unowned = unowned_metrics(metrics)
        for series in unowned["Counters"].values():
            for row in series:
                assert series_owner(row["Labels"]) is None


class TestFleetSnapshot:
    def test_scrape_sections_every_host(self, tmp_path):
        system, alice, bob = replicated_system(tmp_path, n_replicas=2)
        alice.upload_segments([make_segment()])
        alice.flush()
        bob.fetch("alice", DataQuery())
        snapshot = system.broker.fleet.scrape()
        assert snapshot["Version"] == 1
        hosts = snapshot["Hosts"]
        assert set(hosts) == {
            "broker", "alice-store", "alice-store-r1", "alice-store-r2"
        }
        for host, section in hosts.items():
            assert section["Reachable"], host
            assert not section["Tombstoned"], host
        assert hosts["alice-store"]["Role"] == "primary"
        assert hosts["alice-store-r1"]["Role"] == "replica"
        assert hosts["broker"]["Role"] == "broker"
        assert hosts["alice-store-r1"]["Position"]["Lsn"] > 0

    def test_versions_are_monotonic(self, tmp_path):
        system, _, _ = replicated_system(tmp_path)
        assert system.broker.fleet.scrape()["Version"] == 1
        assert system.broker.fleet.scrape()["Version"] == 2

    def test_totals_cover_fleet_wide_traffic(self, tmp_path):
        system, alice, bob = replicated_system(tmp_path)
        alice.upload_segments([make_segment()])
        alice.flush()
        bob.fetch("alice", DataQuery())
        totals = system.broker.fleet.scrape()["Totals"]
        assert totals["net_requests_total"] > 0
        assert totals["replication_frames_shipped_total"] > 0
        assert totals["query_cost_records_total"] >= 1

    def test_snapshot_carries_slo_and_slow_queries(self, tmp_path):
        system, alice, bob = replicated_system(tmp_path)
        alice.upload_segments([make_segment()])
        alice.flush()
        bob.fetch("alice", DataQuery())
        snapshot = system.broker.fleet.scrape()
        assert "RevocationLatencyMs" in snapshot["Slo"]
        assert snapshot["SlowQueries"]
        assert snapshot["SlowQueries"][0]["Endpoint"] == "/api/query"

    def test_served_at_the_fleet_metrics_endpoint(self, tmp_path):
        system, _, _ = replicated_system(tmp_path)
        client = HttpClient(system.network, name="operator")
        body = client.get("https://broker/api/fleet/metrics")
        assert body["Version"] >= 1
        assert "alice-store" in body["Hosts"]

    def test_telemetry_off_maybe_scrape_noops(self, tmp_path):
        system = SensorSafeSystem(seed=7, telemetry=False)
        system.create_replicated_store(
            "alice-store", directory=str(tmp_path), n_replicas=1
        )
        assert system.broker.fleet.maybe_scrape() is None


class TestTombstoning:
    def test_dead_host_is_tombstoned_not_dropped(self, tmp_path):
        system, alice, _ = replicated_system(tmp_path)
        alice.upload_segments([make_segment()])
        alice.flush()
        before = system.broker.fleet.scrape()
        reqs_before = before["Hosts"]["alice-store"]["Metrics"]["Counters"]
        system.network.unregister_host("alice-store")
        after = system.broker.fleet.scrape()
        section = after["Hosts"]["alice-store"]
        assert not section["Reachable"]
        assert section["Tombstoned"]
        assert section["Error"]
        # Metric continuity: the last good scrape's series are retained.
        assert section["Metrics"]["Counters"] == reqs_before

    def test_never_seen_host_is_down_but_not_tombstoned(self, tmp_path):
        system, _, _ = replicated_system(tmp_path)
        system.network.unregister_host("alice-store")
        section = system.broker.fleet.scrape()["Hosts"]["alice-store"]
        assert not section["Reachable"]
        assert not section["Tombstoned"]  # nothing to tombstone: never scraped

    def test_fleet_totals_do_not_shrink_after_a_kill(self, tmp_path):
        system, alice, bob = replicated_system(tmp_path)
        alice.upload_segments([make_segment()])
        alice.flush()
        bob.fetch("alice", DataQuery())
        before = system.broker.fleet.scrape()["Totals"]
        system.network.unregister_host("alice-store")
        after = system.broker.fleet.scrape()["Totals"]
        assert after["store_segments_scanned_total"] >= (
            before["store_segments_scanned_total"]
        )


class TestFailoverTelemetry:
    def test_demoted_host_tombstoned_and_replica_promoted(self, tmp_path):
        system, alice, bob = replicated_system(tmp_path, n_replicas=2)
        alice.upload_segments([make_segment()])
        alice.flush()
        system.broker.fleet.scrape()  # seed the tombstone cache
        system.network.unregister_host("alice-store")
        result = detect_and_fail_over(system)
        assert result["Promoted"] == "alice-store-r1"
        snapshot = system.broker.fleet.scrape()
        hosts = snapshot["Hosts"]
        assert hosts["alice-store"]["Tombstoned"]
        assert hosts["alice-store-r1"]["Role"] == "primary"
        assert hosts["alice-store-r1"]["Epoch"] == 2

    def test_promotion_records_detection_slo_and_traced_event(self, tmp_path):
        system, alice, _ = replicated_system(tmp_path, n_replicas=2)
        alice.upload_segments([make_segment()])
        alice.flush()
        system.network.unregister_host("alice-store")
        result = detect_and_fail_over(system)
        assert result["TraceId"]
        assert result["DetectionMs"] is not None and result["DetectionMs"] > 0
        hist = system.obs.metrics.histogram("slo_failover_detection_ms")
        assert hist.count == 1
        snapshot = system.broker.fleet.scrape()
        events = snapshot["FailoverEvents"]
        promote = next(e for e in events if e["Event"] == "promote")
        assert promote["Host"] == "alice-store-r1"
        assert promote["TraceId"] == result["TraceId"]
        assert snapshot["Slo"]["FailoverDetectionMs"]["Count"] == 1

    def test_replicas_status_endpoint_exposes_events(self, tmp_path):
        system, alice, _ = replicated_system(tmp_path)
        alice.upload_segments([make_segment()])
        alice.flush()
        system.network.unregister_host("alice-store")
        detect_and_fail_over(system)
        status = system.broker.client.with_key(
            system.broker.register_consumer("ops")
        ).post("https://broker/api/replicas/status", {})
        assert any(e["Event"] == "promote" for e in status["Events"])


class TestReplicationTracePropagation:
    def test_one_upload_one_trace_tree_spanning_primary_and_replica(
        self, tmp_path
    ):
        system, alice, _ = replicated_system(tmp_path)
        system.obs.tracer.reset()
        alice.upload_segments([make_segment(start_ms=MONDAY + 3_600_000)])
        alice.flush()
        ships = [s for s in system.obs.tracer.finished
                 if s.name == "replication.ship"]
        assert ships
        tree = system.obs.tracer.trace_tree(ships[-1].trace_id)
        names = [span.name for _, span in tree]
        # The upload's client span roots the tree; the ship and the
        # replica-side apply are in the SAME tree.
        assert "client.send" in names
        assert "replication.ship" in names
        assert "replication.apply" in names
        roots = [span for depth, span in tree if depth == 0]
        assert roots and roots[0].name == "client.send"

    def test_ship_span_labels_outcome_and_replica(self, tmp_path):
        system, alice, _ = replicated_system(tmp_path)
        system.obs.tracer.reset()
        alice.upload_segments([make_segment(start_ms=MONDAY + 7_200_000)])
        alice.flush()
        ship = next(s for s in reversed(system.obs.tracer.finished)
                    if s.name == "replication.ship")
        assert ship.attributes["replica"] == "alice-store-r1"
        assert ship.attributes["outcome"] in ("ok", "noop")
