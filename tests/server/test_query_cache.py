"""Service-level tests for the versioned release cache on the query path.

Every test here asserts the same core property from two sides: a cache
hit must be byte-identical to a fresh evaluation, and any event that can
change what a fresh evaluation would release must make the warm entry
unreachable (key moves) or gone (wholesale invalidation).
"""

import pytest

from repro.net import wire
from repro.net.transport import Network
from repro.rules.model import ALLOW, DENY, Rule, abstraction
from repro.server.datastore_service import DataStoreService
from repro.storage import records
from repro.util import jsonutil

from tests.conftest import MONDAY, make_segment, released_pieces

HOST = "qc-store"


def make_service(**kwargs):
    """A fresh store with alice (contributor), bob (consumer), data, and
    an allow-everything rule for bob.  Returns (service, bob_key)."""
    service = DataStoreService(HOST, Network(), seed=0, **kwargs)
    service.register_contributor("alice")
    bob_key = service.register_consumer("bob")
    service.rules.add("alice", Rule(consumers=("bob",), action=ALLOW, rule_id="r-allow"))
    for i in range(4):
        service.store.add_segment(make_segment(n=8, start_ms=MONDAY + i * 3_600_000))
    service.store.flush()
    return service, bob_key


def counted_query(service, key, body=None):
    """POST /api/query as the holder of ``key``; returns (response, bytes
    the transport counted for it)."""
    traffic = service.network.metrics_of(service.host)
    before = traffic.bytes_out
    response = service.network.request(
        "POST",
        f"https://{service.host}/api/query",
        {"Contributor": "alice", "Query": body or {}, "ApiKey": key},
    )
    return response, traffic.bytes_out - before


def query(service, key, body=None):
    """POST /api/query as the holder of ``key``; returns the body dict."""
    return counted_query(service, key, body)[0].body


def canonical(body) -> bytes:
    """The body's bytes on the wire (a release holds its samples as a
    ``bytes`` part, which ``canonical_dumps`` alone refuses)."""
    return wire.encode(body)


def cache_counters(service):
    m = service.network.obs.metrics
    return {
        "hits": m.counter_value("cache_hits_total", store=service.host),
        "misses": m.counter_value("cache_misses_total", store=service.host),
        "scanned": m.counter_value("store_segments_scanned_total", store=service.host),
        "evaluations": m.counter_value("rule_evaluations_total"),
    }


class TestHitPath:
    def test_repeat_query_hits_and_is_byte_identical(self):
        service, bob_key = make_service()
        first = query(service, bob_key)
        mid = cache_counters(service)
        second = query(service, bob_key)
        after = cache_counters(service)
        assert canonical(first) == canonical(second)
        # ... and the samples are not even copied: the hit serves the very
        # bytes object the miss built
        assert second["Released"]["Values"]["Blob"] is first["Released"]["Values"]["Blob"]
        assert type(first["Released"]["Values"]["Blob"]) is bytes
        assert released_pieces(first), "fixture should release data"
        assert after["hits"] == mid["hits"] + 1
        # An unguarded hit neither rescans the store nor runs the engine.
        assert mid["scanned"] > 0 and mid["evaluations"] > 0
        assert after["scanned"] == mid["scanned"]
        assert after["evaluations"] == mid["evaluations"]

    def test_hit_still_audited_and_guarded(self):
        """The entry keeps no pieces, so a hit with a guard attached
        evaluates again; the key fixes every input, so the event it raises
        is the miss's, piece for piece, and the frame served is unchanged."""
        service, bob_key = make_service()
        events = []
        service.release_guards.append(events.append)
        first = query(service, bob_key)
        second = query(service, bob_key)
        assert cache_counters(service)["hits"] == 1 and len(events) == 2
        miss, hit = events
        for parts in ("segments", "released"):
            assert [p.to_json() for p in getattr(miss, parts)] == [
                p.to_json() for p in getattr(hit, parts)
            ]
            assert [p.interval for p in getattr(miss, parts)] == [
                p.interval for p in getattr(hit, parts)
            ]
        assert released_pieces(second) == [r.to_json() for r in hit.released]
        assert second["Released"]["Values"]["Blob"] is first["Released"]["Values"]["Blob"]
        assert len(service.audit.accesses_by("alice", "bob")) == 2

    def test_cache_holds_frames_and_charges_them(self):
        """Nothing reachable from the entries is a piece or a segment, and
        the ``cache_bytes`` gauge is the entries' own charge."""
        import gc

        from repro.datastore.wavesegment import WaveSegment
        from repro.rules.engine import ReleasedSegment

        service, bob_key = make_service()
        for body in ({}, {"Channels": ["ECG"]}, {"Limit": 2}):
            assert released_pieces(query(service, bob_key, body))
        entries = service.release_cache._entries
        assert len(entries) == 3
        seen, todo = set(), [entries]
        while todo:
            obj = todo.pop()
            if id(obj) in seen or isinstance(obj, type):
                continue
            seen.add(id(obj))
            assert not isinstance(obj, (ReleasedSegment, WaveSegment)), obj
            todo.extend(gc.get_referents(obj))
        gauge = service.network.obs.metrics.gauge("cache_bytes", store=service.host)
        assert gauge.value == sum(e.nbytes for e in entries.values()) > 0

    def test_hit_books_the_same_release_as_the_miss(self):
        """Audit and cost attribution read the entry's one-time summary on
        a hit; what they record must be what the miss recorded."""
        service, bob_key = make_service()
        service.store.add_segment(
            make_segment(channels=("ECG", "AccelX"), n=8, start_ms=MONDAY + 10 * 3_600_000)
        )
        service.store.flush()
        service.rules.add(
            "alice", Rule(consumers=("bob",), action=abstraction(Stress="NotShare"))
        )
        query(service, bob_key)
        query(service, bob_key)
        assert cache_counters(service)["hits"] == 1
        miss, hit = (r.core_json() for r in service.audit.accesses_by("alice", "bob"))
        assert miss["PiecesReleased"] == 1 and miss["SamplesReleased"] == 8
        assert miss["LabelsReleased"] == ["Activity"] and list(miss["Withheld"]) == ["ECG"]
        for field in ("Seq", "At", "TraceId"):
            miss.pop(field), hit.pop(field)
        assert canonical(miss) == canonical(hit)
        assert service.audit.verify_chain("alice") == []
        costs = service.network.obs.costs.recent(2)
        assert costs[0]["ReleasedBytes"] == costs[1]["ReleasedBytes"] > 0
        assert costs[0]["SegmentsReleased"] == costs[1]["SegmentsReleased"] == 1

    def test_distinct_query_shapes_cached_separately(self):
        service, bob_key = make_service()
        a1 = query(service, bob_key, {"Channels": ["ECG"]})
        b1 = query(service, bob_key, {"Channels": ["ECG"], "Limit": 1})
        a2 = query(service, bob_key, {"Channels": ["ECG"]})
        b2 = query(service, bob_key, {"Channels": ["ECG"], "Limit": 1})
        assert canonical(a1) == canonical(a2)
        assert canonical(b1) == canonical(b2)
        assert len(released_pieces(b1)) <= len(released_pieces(a1))
        assert cache_counters(service)["hits"] == 2

    def test_aggregate_bypasses_the_release_cache(self):
        """An aggregate reads the engine's pieces, which no entry keeps: it
        evaluates every time and neither reads nor fills the cache."""
        service, bob_key = make_service()
        query(service, bob_key)
        body = {
            "Contributor": "alice",
            "Query": {},
            "Aggregate": {"Function": "mean", "WindowMs": 3_600_000},
            "ApiKey": bob_key,
        }
        url = f"https://{service.host}/api/aggregate"
        before = cache_counters(service)
        first = service.network.request("POST", url, dict(body)).body
        mid = cache_counters(service)
        second = service.network.request("POST", url, dict(body)).body
        after = cache_counters(service)
        assert first["Rows"] and canonical(first) == canonical(second)
        for a, b in ((before, mid), (mid, after)):
            assert (a["hits"], a["misses"]) == (b["hits"], b["misses"])
            assert b["scanned"] > a["scanned"] and b["evaluations"] > a["evaluations"]
        assert len(service.release_cache) == 1
        assert len(service.audit.accesses_by("alice", "bob")) == 3


class TestInvalidation:
    def test_rule_mutation_misses_and_changes_the_release(self):
        service, bob_key = make_service()
        before = query(service, bob_key)
        assert released_pieces(before)
        service.rules.add("alice", Rule(consumers=("bob",), action=DENY, rule_id="r-deny"))
        after = query(service, bob_key)
        assert released_pieces(after) == []
        assert cache_counters(service)["hits"] == 0

    def test_rule_removal_restores_the_old_bytes_via_a_fresh_entry(self):
        service, bob_key = make_service()
        before = query(service, bob_key)
        service.rules.add("alice", Rule(consumers=("bob",), action=DENY, rule_id="r-deny"))
        query(service, bob_key)
        service.rules.remove("alice", "r-deny")
        again = query(service, bob_key)
        # rules_version moved forward, so this is a miss — but the fresh
        # evaluation must reproduce the original bytes exactly.
        assert canonical(again) == canonical(before)
        assert cache_counters(service)["hits"] == 0

    def test_upload_moves_the_content_fingerprint(self):
        service, bob_key = make_service()
        before = query(service, bob_key)
        service.store.add_segment(make_segment(n=8, start_ms=MONDAY + 10 * 3_600_000))
        service.store.flush()
        after = query(service, bob_key)
        assert cache_counters(service)["hits"] == 0
        assert len(released_pieces(after)) > len(released_pieces(before))

    def test_delete_moves_the_content_fingerprint(self):
        service, bob_key = make_service()
        alice_key = service.keys.key_of("alice")
        before = query(service, bob_key)
        service.network.request(
            "POST",
            f"https://{service.host}/api/delete",
            {"Contributor": "alice", "Query": {}, "ApiKey": alice_key},
        )
        after = query(service, bob_key)
        assert released_pieces(before) and released_pieces(after) == []
        assert cache_counters(service)["hits"] == 0

    def test_membership_keyed_not_invalidated(self):
        service, bob_key = make_service()
        service.rules.replace_all(
            "alice", [Rule(consumers=("study-x",), action=ALLOW, rule_id="r-grp")]
        )
        service.register_consumer("bob", groups=["study-x"])
        granted = query(service, bob_key)
        assert released_pieces(granted)
        # Enrollment only adds groups; a role row (as a primary ships it)
        # is complete state, so one can take a group away again.
        bob_row = {"Principal": "bob", "Role": "consumer", "Groups": []}
        records.apply(service, records.OP_ROLE, bob_row, journal=False)
        denied = query(service, bob_key)
        assert released_pieces(denied) == []
        # Reverting membership restores the original decision inputs, so
        # the original entry is legitimately served again.
        service.register_consumer("bob", groups=["study-x"])
        resurrected = query(service, bob_key)
        assert canonical(resurrected) == canonical(granted)
        assert cache_counters(service)["hits"] == 1

    def test_places_edit_moves_the_epoch(self):
        service, bob_key = make_service()
        query(service, bob_key)
        epoch = service.rules.rules_version
        service.set_places("alice", {})
        assert service.rules.rules_version == epoch + 1
        # The entry made under the old places is still held, unreachable.
        query(service, bob_key)
        assert cache_counters(service)["hits"] == 0
        assert len(service.release_cache) == 2

    def test_fail_closed_flag_is_part_of_the_key(self):
        service, bob_key = make_service()
        warm = query(service, bob_key)
        assert released_pieces(warm)
        service.fail_closed.add("alice")
        denied = query(service, bob_key)
        assert released_pieces(denied) == []
        assert cache_counters(service)["hits"] == 0


class TestCacheOffParity:
    def test_disabled_cache_serves_identical_bytes(self):
        cached, key_a = make_service()
        plain, key_b = make_service(cache_capacity=0)
        assert plain.release_cache is None
        bodies = []
        for service, key in ((cached, key_a), (plain, key_b)):
            per_service = []
            for _ in range(3):
                per_service.append(canonical(query(service, key)))
            service.rules.add(
                "alice", Rule(consumers=("bob",), action=DENY, rule_id="r-deny")
            )
            per_service.append(canonical(query(service, key)))
            bodies.append(per_service)
        assert bodies[0] == bodies[1]


class TestDeclaredWireSize:
    """A consumer release declares its wire size (``Response.wire_bytes``)
    instead of being encoded again by the transport; C2's traffic figures
    are only true if declared == ``len(wire.encode(body))``, always."""

    def assert_exact(self, service, key, body=None, *, rounds=2):
        """Miss then hit(s): declared, counted and measured sizes agree."""
        responses = []
        for _ in range(rounds):
            response, counted = counted_query(service, key, body)
            assert response.ok
            assert response.wire_bytes == counted == len(canonical(response.body))
            responses.append(response)
        return responses

    def test_miss_and_hit_declare_the_measured_size(self):
        service, bob_key = make_service()
        miss, hit = self.assert_exact(service, bob_key)
        assert released_pieces(miss.body) and miss.wire_bytes == hit.wire_bytes
        assert cache_counters(service)["hits"] == 1

    def test_empty_release(self):
        service, _ = make_service()
        carol_key = service.register_consumer("carol")  # no rule: default deny
        for response in self.assert_exact(service, carol_key):
            assert released_pieces(response.body) == []

    def test_limit_truncates_the_payload_and_its_size(self):
        service, bob_key = make_service()
        full = self.assert_exact(service, bob_key)[0]
        limited = self.assert_exact(service, bob_key, {"Limit": 2})[0]
        assert 0 < len(released_pieces(limited.body)) < len(released_pieces(full.body))
        assert limited.wire_bytes < full.wire_bytes

    @pytest.mark.parametrize("scanned", [0, 9, 10, 1000])
    def test_scanned_digit_width(self, scanned, monkeypatch):
        service, bob_key = make_service()
        real_query = service.store.query

        def query_scanning(contributor, data_query):
            result = real_query(contributor, data_query)
            result.scanned_segments = scanned
            return result

        monkeypatch.setattr(service.store, "query", query_scanning)
        for response in self.assert_exact(service, bob_key):
            assert response.body["Scanned"] == scanned

    @staticmethod
    def non_ascii_service(**kwargs):
        from repro.util.geo import BoundingBox, LabeledPlace

        service = DataStoreService(HOST, Network(), seed=0, **kwargs)
        service.register_contributor("alice")
        bob_key = service.register_consumer("bob")
        service.set_places(
            "alice", {"café-é": LabeledPlace("café-é", BoundingBox(34.0, -118.5, 34.1, -118.4))}
        )
        service.rules.add(
            "alice",
            Rule(consumers=("bob",), location_labels=("café-é",), action=ALLOW, rule_id="r"),
        )
        service.store.add_segment(
            make_segment(n=4, channels=("AccelX",), context={"Activity": "Café ☕"})
        )
        service.store.flush()
        return service, bob_key

    def test_non_ascii_labels_encode_to_ascii(self):
        """The JSON head's ``len(str)`` is a byte count only because the
        canonical encoder escapes everything outside ASCII; pin that
        alongside the sizes."""
        service, bob_key = self.non_ascii_service()
        response = self.assert_exact(service, bob_key)[1]
        (piece,) = released_pieces(response.body)
        assert piece["ContextLabels"] == {"Activity": "Café ☕"}
        assert "Context" not in piece["Segment"]
        encoded = canonical(response.body)
        head, _, part = encoded.partition(b"\n")
        assert head.isascii() and part == response.body["Released"]["Values"]["Blob"]
        assert len(encoded) == response.wire_bytes

    @pytest.mark.parametrize("cache", [{}, {"cache_capacity": 0}], ids=["cached", "uncached"])
    @pytest.mark.parametrize("case", ["empty", "limit", "non-ascii"])
    def test_entry_counts_its_frame_without_encoding_the_blob(self, case, cache, monkeypatch):
        """The miss sizes its frame in one pass over the frame's JSON that
        never turns the blob into text, and the count is still exact."""
        from repro.datastore.query import DataQuery
        from repro.net import wire as wire_module

        service, _ = self.non_ascii_service(**cache) if case == "non-ascii" else make_service(**cache)
        consumer = "bob"
        if case == "empty":
            consumer = "carol"
            service.register_consumer("carol")  # no rule: default deny
        data_query = DataQuery.from_json({"Limit": 2} if case == "limit" else {})

        texts = []  # every canonical pass that could meet a blob
        real = jsonutil.canonical_dumps

        def counting(obj, **hooks):
            text = real(obj, **hooks)
            if hooks.get("default") is not None:
                texts.append(text)
            return text

        monkeypatch.setattr(wire_module.jsonutil, "canonical_dumps", counting)
        entry = service._release_for(consumer, "alice", data_query)
        monkeypatch.undo()
        assert (service.release_cache is None) == bool(cache)
        assert bool(entry.summary.pieces) == (case != "empty")
        blob = entry.payload["Values"]["Blob"]
        assert entry.payload_bytes == len(canonical(entry.payload)) == len(texts[0]) + 1 + len(blob)
        assert len(texts) == 1 and '"Blob":{"$bytes":%d}' % len(blob) in texts[0]
        assert (blob == b"") == (case == "empty")

    def test_cache_disabled_still_declares_exactly(self):
        service, bob_key = make_service(cache_capacity=0)
        assert service.release_cache is None
        self.assert_exact(service, bob_key)

    def test_owner_raw_read_and_errors_are_measured_not_declared(self):
        service, bob_key = make_service()
        alice_key = service.keys.issue("alice")
        for key, status in ((alice_key, 200), ("not-a-key", 401)):
            response, counted = counted_query(service, key)
            assert response.status == status and response.wire_bytes is None
            assert counted == len(canonical(response.body))

    def test_injected_5xx_and_lost_ack_fall_back_to_measuring(self):
        """A fault plan swaps the response on the wire: the bytes counted
        are those of what was delivered, never the replaced release's."""
        from repro.net.faults import FaultPlan

        service, bob_key = make_service()
        released = self.assert_exact(service, bob_key)[1]  # entry is warm
        for install in (
            lambda plan: plan.add_error(HOST, status=503),
            lambda plan: plan.add_response_error(HOST, status=502),
        ):
            plan = FaultPlan()
            install(plan)
            service.network.install_faults(plan)
            response, counted = counted_query(service, bob_key)
            assert response.status >= 500 and response.wire_bytes is None
            assert counted == len(canonical(response.body)) < released.wire_bytes
        service.network.install_faults(None)
        self.assert_exact(service, bob_key, rounds=1)
