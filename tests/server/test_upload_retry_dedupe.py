"""Duplicate-upload regression: lost acks + client retries (PR 6 satellite).

The bug class: a store accepts an upload, the 200 is lost in transit, the
phone's retry policy re-sends, and the store ingests the same segment
twice — double-counting the contributor's data and double-releasing it to
consumers.  The fix dedupes on segment id at the store boundary; these
tests drive the *whole* path (client retry loop, fault plan, HTTP
handler) rather than the store method in isolation.
"""

import pytest

from tests.conftest import MONDAY, make_segment
from repro.collection.phone import SmartphoneAgent
from repro.core.system import SensorSafeSystem
from repro.datastore.query import DataQuery
from repro.net.client import HttpClient
from repro.net.faults import FaultPlan
from repro.net.transport import Network
from repro.rules.model import ALLOW, Rule
from repro.sensors.packets import encode_upload, packetize
from repro.server.datastore_service import DataStoreService


def lossy_system(*, fail_first=1):
    """A system whose store loses the first ``/api/upload`` ack."""
    plan = FaultPlan(seed=3)
    plan.add_response_error("alice-store", path="/api/upload", fail_first=fail_first)
    system = SensorSafeSystem(seed=3, fault_plan=plan)
    alice = system.add_contributor("alice")
    return system, alice


class TestUploadRetryDedupe:
    def test_lost_ack_retry_does_not_double_store(self):
        system, alice = lossy_system()
        segment = make_segment()
        # One call from the caller's point of view; two deliveries on the
        # wire (the retry fires because the first ack came back 503).
        alice.upload_segments([segment])
        alice.flush()
        store = system.stores["alice-store"]
        assert store.store.stats.n_segments == 1
        traffic = system.traffic()["alice-store"]
        assert traffic.requests_in >= 2  # the duplicate really was sent

    def test_duplicates_reported_not_stored(self):
        system, alice = lossy_system()
        segment = make_segment()
        body = alice.client.post(
            "https://alice-store/api/upload",
            {"Contributor": "alice", "Segments": [segment.to_json()]},
        )
        assert body["Duplicates"] == 1  # Accepted counts receipt, not storage
        assert body["Finalized"] == 0  # nothing newly finalized by the resend

    def test_consumer_sees_each_sample_once(self):
        system, alice = lossy_system()
        alice.add_rule(Rule(consumers=("bob",), action=ALLOW))
        segment = make_segment(n=20)
        alice.upload_segments([segment])
        alice.flush()
        bob = system.add_consumer("bob")
        bob.add_contributors(["alice"])
        released = bob.fetch("alice")
        total = sum(len(r.segment.sample_times()) for r in released)
        assert total == 20

    def test_distinct_segments_still_accepted(self):
        system, alice = lossy_system(fail_first=2)
        alice.upload_segments([make_segment()])
        alice.upload_segments([make_segment(start_ms=MONDAY + 3_600_000)])
        alice.flush()
        assert system.stores["alice-store"].store.stats.n_segments == 2


# ----------------------------------------------------------------------
# Re-sent uploads after a store restart (PR 24)
# ----------------------------------------------------------------------
#
# A store on the contributor's own machine restarts; the phone, which never
# saw some acks, re-sends.  What the store kept must dedupe whichever way it
# came back — replayed from the log or loaded from a checkpoint — and
# whether the id it kept is a packet's or a merged run's.

HOST = "st"


def lone(i):
    """One 64-sample ECG packet, a minute after the last: never merges."""
    return packetize("ECG", MONDAY + i * 60_000, 4, [float(i)] * 64)


#: What the store held before the restart, and the duplicates the re-send
#: of it must count: one per remembered packet id, one per re-merged run.
FIRST = {
    "single": (lone(0) + lone(1) + lone(2), 3),
    "merged": (packetize("ECG", MONDAY, 4, [float(i) for i in range(640)]), 1),
}
NEW = lone(20) + lone(21)  # contiguous with nothing above


def start(directory):
    network = Network()
    service = DataStoreService(HOST, network, directory=str(directory), durable=True)
    return network, service, service.register_contributor("alice")


def upload(network, key, packets):
    return network.request(
        "POST",
        f"https://{HOST}/api/upload_packets",
        {"Contributor": "alice", "Upload": encode_upload(packets), "Flush": True, "ApiKey": key},
    )


@pytest.mark.parametrize("fresh", [[], NEW], ids=["exact", "plus-new"])
@pytest.mark.parametrize("shape", sorted(FIRST))
@pytest.mark.parametrize("checkpoint", [False, True], ids=["wal-only", "checkpointed"])
class TestResendAfterRestart:
    def restarted(self, directory, first, checkpoint):
        """A store that took ``first``, then restarted."""
        network, service, key = start(directory)
        assert upload(network, key, first).status == 200
        if checkpoint:
            service.checkpoint()
        service.durability.close()
        return start(directory)

    def assert_stored_once(self, service, sent, duplicates):
        assert service.store.duplicate_uploads == duplicates
        times = [
            t
            for segment in service.store.query("alice", DataQuery()).segments
            for t in segment.sample_times()
        ]
        assert len(times) == len(set(times)) == sum(len(p.values) for p in sent)

    def test_chunk_is_accepted_and_stored_once(self, tmp_path, checkpoint, shape, fresh):
        first, duplicates = FIRST[shape]
        network, service, key = self.restarted(tmp_path, first, checkpoint)
        response = upload(network, key, first + fresh)
        assert response.status == 200, response.body
        assert response.body["Accepted"] == len(first + fresh)
        self.assert_stored_once(service, first + fresh, duplicates)

    def test_phone_loses_nothing(self, tmp_path, checkpoint, shape, fresh):
        first, duplicates = FIRST[shape]
        network, service, key = self.restarted(tmp_path, first, checkpoint)
        phone = SmartphoneAgent("alice", HOST, HttpClient(network, "phone", key))
        phone.upload(first + fresh)
        assert (phone.stats.packets_lost, phone.stats.packets_refused) == (0, 0)
        assert phone.stats.packets_delivered == len(first + fresh)
        self.assert_stored_once(service, first + fresh, duplicates)
