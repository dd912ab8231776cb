"""Tests for the comparison baselines."""

import pytest

from repro.baselines.centralized import CentralizedService
from repro.baselines.pdv import NoBrokerDiscovery
from repro.baselines.tuple_store import TupleStore
from repro.net.client import HttpClient
from repro.net.transport import Network
from repro.rules.model import ALLOW, Rule
from repro.rules.parser import rules_to_json
from repro.sensors.packets import encode_upload, packetize
from repro.util.timeutil import Interval

from tests.conftest import MONDAY, UCLA, make_segment, released_pieces


class TestTupleStore:
    def test_one_record_per_sample(self):
        store = TupleStore()
        packets = packetize("ECG", MONDAY, 250, list(range(100)), location=UCLA)
        for pkt in packets:
            store.add_packet("alice", pkt)
        assert store.record_count() == 100

    def test_range_query(self):
        store = TupleStore()
        for pkt in packetize("ECG", MONDAY, 1000, list(range(100)), location=UCLA):
            store.add_packet("alice", pkt)
        rows = store.query_range("alice", Interval(MONDAY + 10_000, MONDAY + 20_000))
        assert len(rows) == 10
        assert [r["value"] for r in rows] == list(range(10, 20))

    def test_channel_filter_and_isolation(self):
        store = TupleStore()
        for pkt in packetize("ECG", MONDAY, 1000, [1.0] * 10, location=UCLA):
            store.add_packet("alice", pkt)
        for pkt in packetize("Respiration", MONDAY, 1000, [2.0] * 10, location=UCLA):
            store.add_packet("alice", pkt)
        rows = store.query_range(
            "alice", Interval(MONDAY, MONDAY + 60_000), channels=["ECG"]
        )
        assert len(rows) == 10
        assert store.query_range("bob", Interval(MONDAY, MONDAY + 60_000)) == []

    def test_storage_overhead_vs_segments(self):
        """The paper's claim: per-tuple storage is bigger than blobs."""
        store = TupleStore()
        for pkt in packetize("ECG", MONDAY, 250, list(range(1000)), location=UCLA):
            store.add_packet("alice", pkt)
        segment_bytes = make_segment(n=1000).storage_bytes()
        assert store.storage_bytes > 3 * segment_bytes


class TestCentralized:
    @pytest.fixture()
    def central(self):
        network = Network()
        service = CentralizedService(network)
        return network, service

    def _register(self, network, name, role):
        body = network.request(
            "POST", "https://central/api/register", {"Username": name, "Role": role}
        ).body
        return HttpClient(network, name, body["ApiKey"])

    def test_upload_query_with_rules(self, central):
        network, service = central
        alice = self._register(network, "alice", "contributor")
        bob = self._register(network, "bob", "consumer")
        packets = packetize("ECG", MONDAY, 250, list(range(64)), location=UCLA)
        alice.post(
            "https://central/api/upload_packets",
            {"Contributor": "alice", "Upload": encode_upload(packets)},
        )
        alice.post("https://central/api/flush", {})
        # Default deny applies here too.
        body = bob.post("https://central/api/query", {"Contributor": "alice", "Query": {}})
        assert released_pieces(body) == []
        alice.post(
            "https://central/api/rules/replace",
            {
                "Contributor": "alice",
                "Rules": rules_to_json([Rule(consumers=("bob",), action=ALLOW)]),
            },
        )
        body = bob.post("https://central/api/query", {"Contributor": "alice", "Query": {}})
        assert len(released_pieces(body)) == 1

    def test_phone_flush_rides_the_last_chunk_here_too(self, central):
        """The phone speaks one upload protocol to both architectures."""
        from repro.collection.phone import PhoneConfig, SmartphoneAgent

        network, service = central
        alice = self._register(network, "alice", "contributor")
        packets = packetize("ECG", MONDAY, 250, list(range(64)), packet_samples=16, location=UCLA)
        phone = SmartphoneAgent("alice", "central", alice, PhoneConfig(upload_batch_packets=3))
        before = network.metrics_of("central").requests_in
        phone.upload(packets)
        # two chunks, the second carrying the flush; no /api/flush request
        assert network.metrics_of("central").requests_in == before + 2
        assert service.breach() == {"alice": 64}

    def test_breach_exposes_everyone(self, central):
        """Single point of failure: one compromise leaks all owners."""
        network, service = central
        for name in ("alice", "carol"):
            client = self._register(network, name, "contributor")
            packets = packetize("ECG", MONDAY, 250, list(range(64)), location=UCLA)
            client.post(
                "https://central/api/upload_packets",
                {"Contributor": name, "Upload": encode_upload(packets)},
            )
        service.store.flush()
        exposure = service.breach()
        assert exposure == {"alice": 64, "carol": 64}

    def test_cannot_upload_for_others(self, central):
        network, _ = central
        alice = self._register(network, "alice", "contributor")
        response = alice.post(
            "https://central/api/upload_packets",
            {"Contributor": "someone-else", "Upload": encode_upload([])},
            raw=True,
        )
        assert response.status == 403


class TestNoBrokerDiscovery:
    def test_probe_discovery_finds_sharers(self, system):
        alice = system.add_contributor("alice")
        carol = system.add_contributor("carol")
        for contributor in (alice, carol):
            contributor.upload_segments(
                [make_segment(contributor=contributor.name, n=16)]
            )
            contributor.flush()
        alice.add_rule(Rule(consumers=("bob",), action=ALLOW))  # carol shares nothing
        bob = system.add_consumer("bob")
        bob.add_contributors(["alice", "carol"])
        ring = bob.refresh_keys()
        directory = {
            "alice": ("alice-store", ring["alice-store"]),
            "carol": ("carol-store", ring["carol-store"]),
        }
        discovery = NoBrokerDiscovery(bob.client, directory)
        window = Interval(MONDAY, MONDAY + 60_000)
        assert discovery.find_sharing(["ECG"], window) == ["alice"]
        assert discovery.queries_issued == 2  # one real query per store

    def test_blind_spot_outside_probe_window(self, system):
        """Probe discovery misses sharing that exists only at other times —
        the broker's rule-based search does not."""
        alice = system.add_contributor("alice")
        alice.upload_segments([make_segment(n=16)])
        alice.flush()
        alice.add_rule(Rule(consumers=("bob",), action=ALLOW))
        bob = system.add_consumer("bob")
        bob.add_contributors(["alice"])
        ring = bob.refresh_keys()
        discovery = NoBrokerDiscovery(
            bob.client, {"alice": ("alice-store", ring["alice-store"])}
        )
        empty_window = Interval(MONDAY + 10**9, MONDAY + 10**9 + 60_000)
        assert discovery.find_sharing(["ECG"], empty_window) == []
