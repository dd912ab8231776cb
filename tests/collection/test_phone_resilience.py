"""Tests for the smartphone agent's offline queue under network faults."""

import pytest

from repro.collection.phone import PhoneConfig
from repro.core import SensorSafeSystem
from repro.exceptions import NetworkUnavailableError
from repro.net.faults import FaultPlan
from repro.net.resilience import NO_RETRY, RetryPolicy
from repro.rules.model import ALLOW, Rule
from repro.sensors.packets import SensorPacket

from tests.conftest import MONDAY, UCLA


def make_packets(n, channel="ECG"):
    return [
        SensorPacket(channel, MONDAY + i * 1_000, 250, (1.0, 2.0, 3.0, 4.0), UCLA, {})
        for i in range(n)
    ]


def make_phone(fault_plan=None, *, retry=None, config=None):
    system = SensorSafeSystem(
        seed=11, retry=retry if retry is not None else RetryPolicy()
    )
    alice = system.add_contributor("alice")
    alice.add_rule(Rule(consumers=("bob",), action=ALLOW))
    phone = alice.phone(config or PhoneConfig(upload_batch_packets=10))
    # Faults go live only after setup so registration/rule download are clean.
    system.install_faults(fault_plan)
    return system, alice, phone


class TestOfflineQueue:
    def test_fault_free_upload_unchanged(self):
        _, alice, phone = make_phone()
        phone.upload(make_packets(25))
        assert phone.stats.packets_delivered == 25
        assert phone.offline_backlog == 0
        assert phone.stats.upload_requests == 3  # 10+10+5
        assert len(alice.view_data()) > 0

    def test_outage_buffers_then_drains(self):
        plan = FaultPlan(seed=11)
        plan.add_outage("alice-store", start_ms=0, duration_ms=20_000)
        system, alice, phone = make_phone(plan)
        phone.upload(make_packets(25))
        assert phone.offline_backlog == 25
        assert phone.stats.packets_delivered == 0
        assert phone.stats.packets_buffered == 25
        system.clock.advance(20_000)
        assert phone.drain_offline() == 0
        assert phone.stats.packets_delivered == 25
        assert phone.stats.packets_recovered == 25
        assert phone.stats.packets_lost == 0
        assert len(alice.view_data()) > 0  # data actually reached the store

    def test_order_preserved_across_recovery(self):
        plan = FaultPlan(seed=11)
        plan.add_outage("alice-store", start_ms=0, duration_ms=20_000)
        system, alice, phone = make_phone(plan)
        phone.upload(make_packets(10))
        system.clock.advance(20_000)
        phone.upload(make_packets(10, channel="SkinTemp"))  # triggers the drain too
        assert phone.offline_backlog == 0
        segments = alice.view_data()
        channels = {s.channels[0] for s in segments}
        assert {"ECG", "SkinTemp"} <= channels

    def test_non_resilient_agent_loses_data(self):
        plan = FaultPlan(seed=11)
        plan.add_outage("alice-store", start_ms=0, duration_ms=20_000)
        _, _, phone = make_phone(
            plan,
            retry=NO_RETRY,
            config=PhoneConfig(resilient=False, upload_batch_packets=10),
        )
        phone.upload(make_packets(25))
        assert phone.stats.packets_lost == 25
        assert phone.offline_backlog == 0

    def test_queue_cap_drops_oldest_and_counts_lost(self):
        plan = FaultPlan(seed=11)
        plan.add_drop("alice-store", path="/api/upload_packets")
        _, _, phone = make_phone(
            plan,
            config=PhoneConfig(upload_batch_packets=10, offline_queue_packets=15),
        )
        phone.upload(make_packets(20))
        assert phone.offline_backlog == 15
        assert phone.stats.packets_lost == 5



def tap(system, intercept=None):
    """Log the path of every upload/flush request from here on;
    ``intercept(path, body)`` may rewrite the body or raise to lose the
    request before dispatch."""
    seen, request = [], system.network.request

    def spy(method, url, body=None, **kwargs):
        path = system.network.parse_url(url)[2]
        if path in ("/api/upload_packets", "/api/flush"):
            seen.append(path)
        if intercept is not None:
            body = intercept(path, dict(body or {}))
        return request(method, url, body, **kwargs)

    system.network.request = spy
    return seen


def lose_flushing_chunks(dark):
    """Intercept: while ``dark[0]``, the chunk carrying the flush is lost."""

    def intercept(path, body):
        if dark[0] and body.get("Flush"):
            raise NetworkUnavailableError("final chunk dropped by the test")
        return body

    return intercept


def older_store(path, body):
    """Intercept: a store that has never heard of the ``Flush`` field."""
    body.pop("Flush", None)
    return body


class TestFlushRidesTheLastChunk:
    """The final ``/api/upload_packets`` chunk carries the flush; the
    separate ``/api/flush`` is the fallback, never a second trip."""

    def test_fault_free_upload_sends_no_flush_request(self):
        system, alice, phone = make_phone()
        seen = tap(system)
        phone.upload(make_packets(25))
        assert seen == ["/api/upload_packets"] * 3
        assert not phone._flush_pending
        assert sum(s.n_samples for s in alice.view_data()) == 100

    def test_one_collect_is_one_request_and_one_ship(self, tmp_path):
        """The ledger's ``requests_per_op`` pinned in tier-1: a collect of
        one batch is one client request — plus, on a durable semi-sync
        store with one replica, exactly one ship."""
        system = SensorSafeSystem(seed=11)
        primary = system.create_replicated_store(
            "clinic", directory=str(tmp_path), n_replicas=1
        )
        total = system.obs.metrics.sum_counter
        for store, requests, ships in ((primary, 2, 1), (None, 1, 0)):
            alice = system.add_contributor(f"alice-{ships}", store=store)
            alice.add_rule(Rule(consumers=("bob",), action=ALLOW))
            phone = alice.phone()
            before = total("net_requests_total"), total("replication_ships_total")
            assert len(phone.collect(make_packets(10))) == 10
            after = total("net_requests_total"), total("replication_ships_total")
            assert (after[0] - before[0], after[1] - before[1]) == (requests, ships)
            if store is primary:  # the ack means the replica holds every frame
                held = system.stores["clinic-r1"].durability.wal.last_lsn
                assert held == primary.durability.wal.last_lsn
            assert sum(s.n_samples for s in alice.view_data()) == 40

    def test_lost_ack_on_the_flushing_chunk_dedupes_and_still_flushes(self):
        plan = FaultPlan(seed=11)
        plan.add_response_error("alice-store", path="/api/upload_packets", fail_first=1)
        system, alice, phone = make_phone(plan)
        seen = tap(system)
        phone.upload(make_packets(10))
        # The handler ran (ingest + flush) and the ack was lost; the
        # client's retry re-offers ids the store drops and is told Flushed.
        assert seen == ["/api/upload_packets"] * 2
        assert phone.stats.packets_delivered == 10 and phone.offline_backlog == 0
        assert not phone._flush_pending
        assert system.stores["alice-store"].store.duplicate_uploads == 10
        assert sum(s.n_samples for s in alice.view_data()) == 40
        assert phone.drain_offline() == 0 and len(seen) == 2

    def test_dropped_final_chunk_leaves_the_prefix_to_api_flush(self):
        dark = [True]
        system, alice, phone = make_phone(retry=NO_RETRY)
        seen = tap(system, lose_flushing_chunks(dark))
        phone.upload(make_packets(15))
        # 10 delivered without a flush of their own, 5 parked: as before
        # this PR, /api/flush makes the delivered prefix durable and visible.
        assert seen == ["/api/upload_packets", "/api/upload_packets", "/api/flush"]
        assert phone.offline_backlog == 5 and not phone._flush_pending
        assert sum(s.n_samples for s in alice.view_data()) == 40
        dark[0] = False
        assert phone.drain_offline() == 0
        assert seen[3:] == ["/api/upload_packets"]  # redelivered chunk flushed itself
        assert sum(s.n_samples for s in alice.view_data()) == 60

    def test_store_that_ignores_the_field_gets_api_flush(self):
        system, alice, phone = make_phone()
        seen = tap(system, older_store)
        phone.upload(make_packets(10))
        assert seen == ["/api/upload_packets", "/api/flush"]
        assert not phone._flush_pending
        assert sum(s.n_samples for s in alice.view_data()) == 40

    def test_flush_fallback_retried_after_recovery(self):
        from repro.net.faults import DROP, FaultRule

        plan = FaultPlan(seed=11)
        # The store ignores the field, so the phone needs /api/flush — which
        # is dark for the first 10 simulated seconds.
        plan.add_rule(FaultRule(DROP, "alice-store", "/api/flush", until_ms=10_000))
        system, alice, phone = make_phone(plan, retry=NO_RETRY)
        tap(system, older_store)
        phone.upload(make_packets(10))
        assert phone.stats.packets_delivered == 10 and phone._flush_pending
        assert alice.view_data() == []
        system.clock.advance(10_000)
        assert phone.drain_offline() == 0
        assert len(alice.view_data()) > 0  # flush finally finalized segments

    def test_non_resilient_agent_unchanged(self):
        config = PhoneConfig(resilient=False, upload_batch_packets=10)
        system, alice, phone = make_phone(retry=NO_RETRY, config=config)
        seen = tap(system)
        phone.upload(make_packets(10))
        assert seen == ["/api/upload_packets"] and not phone._flush_pending

        system, alice, phone = make_phone(retry=NO_RETRY, config=config)
        seen = tap(system, lose_flushing_chunks([True]))
        phone.upload(make_packets(15))
        # The lost remainder is lost; the delivered prefix is still flushed.
        assert seen == ["/api/upload_packets", "/api/upload_packets", "/api/flush"]
        assert phone.stats.packets_lost == 5 and phone.offline_backlog == 0
        assert not phone._flush_pending
        assert sum(s.n_samples for s in alice.view_data()) == 40


def garble_chunks(*which):
    """Intercept: the n-th upload chunk from here on (1-based, for every n
    in ``which``) reaches the store without its value blob — a 400."""
    count = [0]

    def intercept(path, body):
        if path == "/api/upload_packets":
            count[0] += 1
            if count[0] in which:
                body["Upload"] = {"Packets": body["Upload"]["Packets"]}
        return body

    return intercept


class TestRefusedChunkIsFinal:
    """A chunk the store answers 400 will be answered 400 for ever: it is
    counted lost, never parked, and the chunks behind it still go out."""

    def test_a_400_in_the_middle_loses_that_chunk_only(self):
        system, alice, phone = make_phone()
        seen = tap(system, garble_chunks(2))
        phone.upload(make_packets(25))
        assert seen == ["/api/upload_packets"] * 3  # the last one flushed
        stats = phone.stats
        assert (stats.packets_delivered, stats.packets_lost, stats.packets_refused) == (15, 10, 10)
        assert (stats.upload_requests, stats.upload_failures) == (2, 1)
        assert phone.offline_backlog == 0 and stats.packets_buffered == 0
        assert not phone._flush_pending
        assert sum(s.n_samples for s in alice.view_data()) == 60
        # nothing is waiting to be re-sent ahead of the next upload
        phone.upload(make_packets(5, channel="Respiration"))
        assert seen == ["/api/upload_packets"] * 4
        assert phone.stats.packets_delivered == 20 and phone.stats.packets_refused == 10
        assert phone.drain_offline() == 0 and len(seen) == 4

    def test_a_400_on_the_flushing_chunk_leaves_the_prefix_to_api_flush(self):
        system, alice, phone = make_phone()
        seen = tap(system, garble_chunks(3))
        phone.upload(make_packets(25))
        assert seen == ["/api/upload_packets"] * 3 + ["/api/flush"]
        assert phone.stats.packets_refused == 5 and phone.offline_backlog == 0
        assert not phone._flush_pending
        assert sum(s.n_samples for s in alice.view_data()) == 80

    def test_a_400_at_the_head_of_the_offline_queue_does_not_wedge_it(self):
        """The case that made it a bug: parked, the refused chunk would be
        re-sent ahead of everything behind it on every later upload."""
        plan = FaultPlan(seed=11)
        plan.add_outage("alice-store", start_ms=0, duration_ms=20_000)
        system, alice, phone = make_phone(plan)
        phone.upload(make_packets(20))
        assert phone.offline_backlog == 20
        system.clock.advance(20_000)
        seen = tap(system, garble_chunks(1))
        phone.upload(make_packets(5, channel="Respiration"))
        assert seen == ["/api/upload_packets"] * 3
        stats = phone.stats
        assert (stats.packets_delivered, stats.packets_lost, stats.packets_refused) == (15, 10, 10)
        assert stats.packets_recovered == 10  # the queued chunk that got through; not the new 5
        assert phone.offline_backlog == 0
        assert sum(s.n_samples for s in alice.view_data()) == 60

    def test_the_naive_agent_treats_it_the_same(self):
        config = PhoneConfig(resilient=False, upload_batch_packets=10)
        system, alice, phone = make_phone(retry=NO_RETRY, config=config)
        seen = tap(system, garble_chunks(1))
        phone.upload(make_packets(25))
        assert seen == ["/api/upload_packets"] * 3
        assert (phone.stats.packets_delivered, phone.stats.packets_lost) == (15, 10)
        assert phone.stats.packets_refused == 10

    def test_a_401_is_still_parked_with_everything_behind_it(self):
        """Only *malformed* is final; every other answer keeps its handling."""

        def wrong_key_once(path, body, state=[True]):
            if path == "/api/upload_packets" and state[0]:
                state[0] = False
                body["ApiKey"] = "x" * 64
            return body

        system, alice, phone = make_phone()
        seen = tap(system, wrong_key_once)
        phone.upload(make_packets(25))
        assert seen == ["/api/upload_packets"]
        assert phone.offline_backlog == 25 and phone.stats.packets_lost == 0
        assert phone.stats.packets_refused == 0 and phone.stats.upload_failures == 1
        assert phone.drain_offline() == 0
        assert phone.stats.packets_recovered == 25


class TestRetryAfterBackoff:
    """The agent honors typed-503 Retry-After hints from a shedding store."""

    def build_enforcing(self):
        system = SensorSafeSystem(seed=11, overload="enforce", retry=NO_RETRY)
        alice = system.add_contributor("alice")
        alice.add_rule(Rule(consumers=("bob",), action=ALLOW))
        phone = alice.phone(PhoneConfig(upload_batch_packets=10))
        system.clock.advance(60_000)  # setup backlog drains before the test
        return system, alice, phone

    def overload_store(self, system, n=300):
        # n uploads x 4ms = past the upload-class queue budget (1000ms),
        # so the store sheds further uploads with a typed 503.
        for _ in range(n):
            system.network.request("POST", "https://alice-store/api/upload", {})

    def test_shed_upload_buffers_and_arms_backoff(self):
        system, _, phone = self.build_enforcing()
        self.overload_store(system)
        phone.upload(make_packets(10))
        assert phone.stats.packets_delivered == 0
        assert phone.stats.upload_failures == 1
        assert phone.offline_backlog == 10
        # Inside the Retry-After window the agent does not even dial out.
        before = system.network.metrics_of("alice-store").requests_in
        phone.upload(make_packets(5))
        assert phone.stats.upload_backoffs == 1
        assert system.network.metrics_of("alice-store").requests_in == before
        assert phone.offline_backlog == 15

    def test_drain_waits_out_the_window_then_delivers(self):
        system, alice, phone = self.build_enforcing()
        self.overload_store(system)
        phone.upload(make_packets(10))
        assert phone.offline_backlog == 10
        # drain_offline sleeps past the Retry-After window on the simulated
        # clock; the backlog drains and redelivery succeeds.
        assert phone.drain_offline() == 0
        assert phone.stats.packets_delivered == 10
        assert phone.stats.packets_recovered == 10
        assert phone.stats.packets_lost == 0
        assert len(alice.view_data()) > 0

    def test_backoff_window_expires_naturally(self):
        system, _, phone = self.build_enforcing()
        self.overload_store(system)
        phone.upload(make_packets(10))
        # Once simulated time passes the hint, uploads flow again without
        # an explicit drain call.
        system.clock.advance(60_000)
        phone.upload(make_packets(5))
        assert phone.stats.packets_delivered == 15  # backlog + new batch
        assert phone.offline_backlog == 0
