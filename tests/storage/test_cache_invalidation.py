"""Crash cases for the release cache: recovery must leave no warm grant.

The dangerous failure mode is a store that crashes, fails closed for a
contributor (their persisted rules can no longer be trusted), and then
serves a consumer from a cache entry recorded back when the rules still
allowed the release.  These tests pin down the defenses: a restarted
process starts with empty caches, every record recovery installs moves
a cache-key component (rules and places the rules epoch, segments the
data epoch), and the fail-closed flag is part of every cache key, so
even a re-populated entry denies.

Nothing drops the caches wholesale.  Every event that changes an input
of a release decision moves a cache-key component instead
(``TestKeyMovesInstead``): the next release and the next compiled
artifact reflect the new state, and no warm entry is dropped.
"""

import pytest

from repro.datastore.query import DataQuery
from repro.net import wire
from repro.net.transport import Network
from repro.rules.model import ALLOW, Rule
from repro.rules.parser import rule_to_json
from repro.server.datastore_service import DataStoreService
from repro.storage import StorageFaultPlan, records, wal_path
from repro.storage.wal import HEADER_SIZE, decode_payload
from repro.util.geo import BoundingBox, LabeledPlace

from tests.conftest import UCLA, make_segment, read_wal_frames, released_pieces
from tests.storage.test_records import one_frame_batch, self_resync

HOST = "st"


def durable_service(tmp_path, **kwargs):
    return DataStoreService(
        HOST, Network(), directory=str(tmp_path), durable=True, **kwargs
    )


def warm(tmp_path):
    """A durable store with an allow rule and a consumer query in cache."""
    service = durable_service(tmp_path)
    service.register_contributor("alice")
    service.register_consumer("bob")
    service.rules.add("alice", Rule(consumers=("bob",), action=ALLOW))
    service.store.add_segment(make_segment(channels=("ECG",), n=16))
    service.store.flush()
    service._wal_commit()
    body = query_as_bob(service)
    assert released_pieces(body), "warm-up query should release data"
    assert len(service.release_cache) == 1
    return service, body


def flip_in_rules_frame(path, contributor):
    """Flip one bit in the middle of the payload of ``contributor``'s last
    rules frame in the WAL at ``path``: that frame and every later one are
    corrupt, and the records before it (the enrollments) stay intact."""
    offset = target = 0
    for _lsn, frame, _chain_prev in read_wal_frames(path):
        op, data = decode_payload(frame[HEADER_SIZE:])
        if op == records.OP_RULES and data["Contributor"] == contributor:
            target = offset + HEADER_SIZE + (len(frame) - HEADER_SIZE) // 2
        offset += len(frame)
    assert target, f"no rules frame of {contributor!r} in {path}"
    with open(path, "r+b") as fh:
        fh.seek(target)
        byte = fh.read(1)[0]
        fh.seek(target)
        fh.write(bytes([byte ^ 0x01]))


def query_as_bob(service):
    # Keys are session state: a restarted service restores bob's *role*
    # but not his key, so re-issue on demand.
    bob_key = service.keys.key_of("bob") or service.keys.issue("bob")
    return service.network.request(
        "POST",
        f"https://{HOST}/api/query",
        {"Contributor": "alice", "Query": {}, "ApiKey": bob_key},
    ).body


class TestRecoveryInvalidation:
    def test_clean_restart_starts_with_an_empty_cache(self, tmp_path):
        service, before = warm(tmp_path)
        service.durability.close()
        service2 = durable_service(tmp_path)
        assert service2.recovery_report.clean
        assert len(service2.release_cache) == 0
        # A clean recovery re-derives the same bytes — via a fresh
        # evaluation, not a surviving entry.
        after = query_as_bob(service2)
        assert wire.encode(after) == wire.encode(before)
        m = service2.network.obs.metrics
        assert m.counter_value("cache_hits_total", store=HOST) == 0
        assert m.counter_value("cache_misses_total", store=HOST) == 1

    def test_fail_closed_recovery_serves_no_stale_grant(self, tmp_path):
        service, before = warm(tmp_path)
        service.durability.close()
        flip_in_rules_frame(wal_path(str(tmp_path), HOST), "alice")
        service2 = durable_service(tmp_path)
        assert service2.roles["bob"] == "consumer"  # the flip spared his enrollment
        assert "alice" in service2.fail_closed
        assert len(service2.release_cache) == 0
        # bob held an allow-everything grant before the crash; post-crash
        # the store cannot trust alice's rules and must release nothing.
        after = query_as_bob(service2)
        assert released_pieces(before) and released_pieces(after) == []

    def test_republished_rules_repopulate_the_cache_freshly(self, tmp_path):
        # Corrupt only the rules snapshot (after a checkpoint) so the
        # data survives while the rules fail closed.
        service, before = warm(tmp_path)
        service.checkpoint()
        service.durability.close()
        StorageFaultPlan(seed=3).corrupt_file(str(tmp_path / f"{HOST}.rules.jsonl"))
        service2 = durable_service(tmp_path)
        assert "alice" in service2.fail_closed
        assert released_pieces(query_as_bob(service2)) == []
        # The owner re-publishes the same rule set: fail-closed lifts,
        # the epoch moves, and the original bytes come back via a miss.
        alice_key = service2.keys.issue("alice")
        body = service2.network.request(
            "POST",
            f"https://{HOST}/api/rules/replace",
            {
                "Contributor": "alice",
                "Rules": [rule_to_json(Rule(consumers=("bob",), action=ALLOW))],
                "ApiKey": alice_key,
            },
        ).body
        assert "Error" not in body, body
        assert "alice" not in service2.fail_closed
        restored = query_as_bob(service2)
        assert released_pieces(restored) == released_pieces(before)
        # And the denied response never poisoned the allow path: repeat
        # query is a pure hit with identical bytes.
        again = query_as_bob(service2)
        assert wire.encode(again) == wire.encode(restored)
        m = service2.network.obs.metrics
        assert m.counter_value("cache_hits_total", store=HOST) == 1

    def test_recovery_rerun_over_a_live_service_serves_no_warm_entry(self, tmp_path):
        # Re-running recovery over a *live* service (the in-process repair
        # path) drops nothing, but every record it installs moves a key
        # component: the next query misses, and serves what a freshly
        # started service would.
        from repro.storage.recovery import recover_service

        service, _ = warm(tmp_path)
        m = service.network.obs.metrics
        misses = m.counter_value("cache_misses_total", store=HOST)
        recover_service(service)
        after = query_as_bob(service)
        assert m.counter_value("cache_misses_total", store=HOST) == misses + 1
        service.durability.close()
        fresh = durable_service(tmp_path)
        assert wire.encode(after) == wire.encode(query_as_bob(fresh))


CAMPUS = LabeledPlace(
    "campus",
    BoundingBox(UCLA.lat - 0.01, UCLA.lon - 0.01, UCLA.lat + 0.01, UCLA.lon + 0.01),
)
ELSEWHERE = LabeledPlace("campus", BoundingBox(0, 0, 1, 1))


@pytest.mark.parametrize(
    "cache_capacity", [1024, 0], ids=["cached", "uncached"]
)
class TestKeyMovesInstead:
    """Four events that once dropped both caches wholesale and now move a
    key component instead.  With the release cache off (capacity 0) only
    the compiled-artifact cache stands between the event and the next
    release, so each case proves both."""

    def sharing_campus(self, tmp_path, cache_capacity):
        """alice shares with bob on campus, where her one segment was
        captured; bob has asked once, so both caches are warm."""
        service = durable_service(tmp_path, cache_capacity=cache_capacity)
        service.register_contributor("alice")
        service.register_consumer("bob")
        service.set_places("alice", {"campus": CAMPUS})
        service.rules.add(
            "alice", Rule(consumers=("bob",), location_labels=("campus",), action=ALLOW)
        )
        service.store.add_segment(make_segment(channels=("AccelX",), n=8))
        service.store.flush()
        assert released_pieces(query_as_bob(service))
        assert len(service.compiled_rules) == 1
        return service

    def held(self, service):
        """The keys both caches hold.  Neither LRU is full here, so a key
        leaves only if something drops it."""
        cache = service.release_cache
        keys = set(service.compiled_rules._entries)
        return keys | (set() if cache is None else set(cache._entries))

    def test_live_places_edit(self, tmp_path, cache_capacity):
        service = self.sharing_campus(tmp_path, cache_capacity)
        before = self.held(service)
        service.set_places("alice", {"campus": ELSEWHERE})
        assert released_pieces(query_as_bob(service)) == []  # campus is somewhere else now
        service.set_places("alice", {"campus": CAMPUS})
        assert released_pieces(query_as_bob(service))
        assert self.held(service) > before  # new keys, none dropped

    def test_replica_places_frame(self, tmp_path, cache_capacity):
        """A places record applied while a replica, then a promotion."""
        service = self.sharing_campus(tmp_path, cache_capacity)
        before = self.held(service)
        service.demote()
        self_resync(service)
        moved = records.places_record("alice", {"campus": ELSEWHERE})
        service.applier.apply_batch(
            one_frame_batch(tmp_path, records.OP_PLACES, moved, service.epoch)
        )
        service.promote(service.epoch + 1, {"alice": service.rules.version_of("alice")})
        assert service.fail_closed == set()
        assert released_pieces(query_as_bob(service)) == []
        assert self.held(service) > before  # new keys, none dropped

    def test_migrated_places(self, tmp_path, cache_capacity):
        """A places record installed by ``/api/migrate/install``'s path."""
        service = self.sharing_campus(tmp_path, cache_capacity)
        before = self.held(service)
        moved = records.places_record("alice", {"campus": ELSEWHERE})
        service.network.request(
            "POST",
            f"https://{HOST}/api/migrate/install",
            {"Records": [[records.OP_PLACES, moved]], "ApiKey": service.accept_move(["alice"], "src")},
            client="src",
        )
        assert released_pieces(query_as_bob(service)) == []
        assert self.held(service) > before  # new keys, none dropped

    def test_cutover_fence(self, tmp_path, cache_capacity):
        service = self.sharing_campus(tmp_path, cache_capacity)
        before = self.held(service)
        broker_key = service.pair_broker("", "")
        reply = service.network.request(
            "POST",
            f"https://{HOST}/api/migrate/complete",
            {
                "RuleVersions": {"alice": service.rules.version_of("alice") + 1},
                "ApiKey": broker_key,
            },
        ).body
        assert reply["FailClosed"] == ["alice"]
        assert released_pieces(query_as_bob(service)) == []
        assert service._engine_for("alice").compiled.compiled == ()  # default deny
        assert self.held(service) > before  # new keys, none dropped
