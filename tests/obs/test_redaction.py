"""Adversarial tests for the telemetry redaction boundary.

The acceptance criterion: no sensor sample value or raw coordinate may
appear in any exported span or metric label, even when the instrumented
code tries to attach one.
"""

import json

import numpy as np
import pytest

from repro.exceptions import SensorSafeError
from repro.obs import Observability
from repro.obs.redaction import REDACTED, check_label, redact_attribute

SAMPLE_VALUE = 61.54321  # a "raw ECG sample" no telemetry may carry
UCLA_LAT = 34.0689
UCLA_LON = -118.4452


class TestRedactAttribute:
    def test_floats_are_stripped_unless_timing(self):
        assert redact_attribute("lat", UCLA_LAT) == REDACTED
        assert redact_attribute("reading", SAMPLE_VALUE) == REDACTED
        assert redact_attribute("duration_us", 12.5) == 12.5
        assert redact_attribute("eval_ms", 3.0) == 3.0

    def test_deny_keys_stripped_regardless_of_type(self):
        for key in ("values", "sample_0", "gps_fix", "location", "place",
                    "context_label", "CoordX", "blob"):
            assert redact_attribute(key, "innocuous") == REDACTED, key

    def test_timing_suffix_does_not_unlock_deny_keys(self):
        # "gps_signal" must not sneak past because "_s"-style suffixes are
        # only honored for keys that are not otherwise sensitive.
        assert redact_attribute("gps_rate", UCLA_LAT) == REDACTED
        assert redact_attribute("location_bytes", 7.0) == REDACTED

    def test_latency_is_not_lat(self):
        assert redact_attribute("latency", 12.5) == 12.5

    def test_numeric_strings_stripped(self):
        assert redact_attribute("note", "34.0689") == REDACTED
        assert redact_attribute("note", "1e9") == REDACTED
        assert redact_attribute("note", "fine") == "fine"

    def test_containers_stripped_unless_name_list(self):
        assert redact_attribute("channels", ("ECG", "AccelX")) == ["ECG", "AccelX"]
        assert redact_attribute("data", [1.0, 2.0]) == REDACTED
        assert redact_attribute("data", {"a": 1}) == REDACTED
        assert redact_attribute("data", np.ones(4)) == REDACTED
        assert redact_attribute("data", b"\x00\x01") == REDACTED

    def test_safe_scalars_pass(self):
        assert redact_attribute("host", "alice-store") == "alice-store"
        assert redact_attribute("count", 7) == 7
        assert redact_attribute("ok", True) is True
        assert redact_attribute("missing", None) is None


class TestSpanExportNeverLeaks:
    def _leak_everything(self, span):
        """What a careless (or malicious) instrumentation site might do."""
        span.set_attribute("ecg_value", SAMPLE_VALUE)
        span.set_attribute("values", [SAMPLE_VALUE] * 8)
        span.set_attribute("waveform", np.full(64, SAMPLE_VALUE))
        span.set_attribute("lat", UCLA_LAT)
        span.set_attribute("lon", UCLA_LON)
        span.set_attribute("note", str(SAMPLE_VALUE))
        span.set_attribute("context_label", "Stressed")

    def test_adversarial_attributes_stripped_from_export(self):
        obs = Observability()
        with obs.tracer.start_span("evil") as span:
            self._leak_everything(span)
        dump = json.dumps(obs.tracer.export_json())
        assert str(SAMPLE_VALUE) not in dump
        assert str(UCLA_LAT) not in dump
        assert str(UCLA_LON) not in dump
        assert "Stressed" not in dump

    def test_direct_dict_write_caught_at_export(self):
        # Bypassing set_attribute: the export-time second pass catches it.
        obs = Observability()
        with obs.tracer.start_span("evil") as span:
            span.attributes["sneaky"] = np.full(16, SAMPLE_VALUE)
            span.attributes["lat_direct"] = UCLA_LAT
        dump = json.dumps(obs.tracer.export_json())
        assert str(SAMPLE_VALUE) not in dump
        assert str(UCLA_LAT) not in dump

    def test_the_write_path_s_spans_count_what_travelled_and_carry_none_of_it(self, tmp_path):
        """An upload's frame and a ship's stream are the two bodies that
        hold every sample of the write path; their spans say how much
        (``packets``/``readings``/``part_bytes``, ``frames``/``bytes``) and
        nothing else."""
        import base64

        from repro.core import SensorSafeSystem
        from repro.datastore.codec import ENCODING_RAW, encode_values
        from repro.sensors.packets import SensorPacket
        from tests.conftest import read_wal_frames
        from repro.util.geo import LatLon

        system = SensorSafeSystem(seed=3)
        primary = system.create_replicated_store(
            "clinic", directory=str(tmp_path), n_replicas=1
        )
        alice = system.add_contributor("alice", store=primary)
        packets = [
            SensorPacket(
                "ECG", 1297036800000 + i * 4_000, 250, (SAMPLE_VALUE,) * 16,
                LatLon(UCLA_LAT, UCLA_LON), {"Stress": "Stressed"},
            )
            for i in range(6)
        ]
        system.obs.tracer.reset()
        alice.phone().upload(packets)
        spans = {s.name: s.to_json()["Attributes"] for s in system.obs.tracer.finished
                 if s.name.startswith("replication.")
                 or s.attributes.get("route") == "/api/upload_packets"}
        assert (spans["net.request"]["packets"], spans["net.request"]["readings"]) == (6, 96)
        ship, applied = spans["replication.ship"], spans["replication.apply"]
        assert ship["frames"] == applied["frames"] >= 1
        assert type(ship["bytes"]) is int and ship["bytes"] > 96 * 8
        # how much of each request was samples: the upload's one blob, the
        # ship's one stream (its true length, not a text armour's) — and a
        # request that carried no binary part says nothing
        requests = {s.attributes["route"]: s.to_json()["Attributes"]
                    for s in system.obs.tracer.finished if s.name == "net.request"}
        assert requests["/api/upload_packets"]["part_bytes"] == 96 * 8
        assert requests["/api/replicate/append"]["part_bytes"] == ship["bytes"]
        assert ship["bytes"] == sum(
            len(frame) for lsn, frame, _ in read_wal_frames(primary.durability.wal.path)
            if lsn > primary.durability.wal.last_lsn - ship["frames"]
        )
        alice.client.post(f"https://{primary.host}/api/flush", {"Contributor": "alice"})
        flush = [s for s in system.obs.tracer.finished if s.attributes.get("route") == "/api/flush"]
        assert flush and all("part_bytes" not in s.attributes for s in flush)
        dump = json.dumps(system.obs.tracer.export_json())
        assert REDACTED not in dump  # nothing had to be scrubbed: nothing was offered
        assert str(SAMPLE_VALUE) not in dump
        assert str(UCLA_LAT) not in dump and str(UCLA_LON) not in dump
        assert "Stressed" not in dump
        # nor the samples in the form they travel in, or any text armour of it
        raw = encode_values(np.full((6, 1), SAMPLE_VALUE), ENCODING_RAW)["Blob"]
        for form in (
            json.dumps(raw[:8].decode("latin-1"))[1:-1],
            raw[:24].hex(),
            base64.b64encode(raw[:24]).decode(),
        ):
            assert form not in dump
        # a careless site that offers the part itself is scrubbed; its size is not
        with system.obs.tracer.start_span("evil") as span:
            span.set_attributes(stream=raw, part_bytes=len(raw))
        assert span.to_json()["Attributes"] == {"stream": REDACTED, "part_bytes": 48}


class TestMetricLabels:
    def test_float_label_raises(self):
        with pytest.raises(SensorSafeError):
            check_label("host", UCLA_LAT)

    def test_numeric_string_label_raises(self):
        with pytest.raises(SensorSafeError):
            check_label("cell", "34.0689")

    def test_deny_key_label_raises(self):
        with pytest.raises(SensorSafeError):
            check_label("location", "home")

    def test_container_label_raises(self):
        with pytest.raises(SensorSafeError):
            check_label("hosts", ["a", "b"])

    def test_registry_snapshot_carries_no_raw_values(self):
        obs = Observability()
        obs.metrics.counter("requests_total", host="alice-store").inc()
        obs.metrics.histogram("eval_us").observe(123.4)
        dump = json.dumps(obs.metrics.snapshot())
        assert str(UCLA_LAT) not in dump
        assert str(SAMPLE_VALUE) not in dump


class TestFleetSnapshotNeverLeaks:
    """Adversarial coverage for the new fleet/SLO/cost export surfaces."""

    def test_scraped_series_with_hostile_labels_are_sanitized(self):
        from repro.obs.fleet import owned_metrics

        # A compromised host hands the broker a scrape whose labels try to
        # smuggle a coordinate and a context label past the boundary.
        hostile = {
            "Counters": {
                "requests_total": [
                    {"Labels": {"store": "evil-store", "lat": str(UCLA_LAT),
                                "context_label": "Stressed"},
                     "Value": 3},
                ],
            },
            "Gauges": {},
            "Histograms": {},
        }
        dump = json.dumps(owned_metrics(hostile, "evil-store"))
        assert str(UCLA_LAT) not in dump
        assert "Stressed" not in dump
        assert "evil-store" in dump  # host names remain allowed

    def test_end_to_end_fleet_snapshot_has_no_sample_data(self, system):
        from tests.conftest import make_segment

        values = np.full((16, 1), SAMPLE_VALUE)
        alice = system.add_contributor("alice")
        alice.upload_segments([make_segment(n=16, values=values)])
        alice.flush()
        from repro.datastore.query import DataQuery
        from repro.rules.model import ALLOW, Rule

        alice.add_rule(Rule(consumers=("bob",), action=ALLOW))
        bob = system.add_consumer("bob")
        bob.add_contributors(["alice"])
        bob.fetch("alice", DataQuery())
        snapshot = system.broker.fleet.scrape()
        dump = json.dumps(snapshot)
        assert str(SAMPLE_VALUE) not in dump  # no sample values
        assert str(UCLA_LAT) not in dump  # no coordinates
        assert str(UCLA_LON) not in dump
        assert "NotStressed" not in dump  # no context labels

    def test_slo_report_carries_no_payload_shapes(self):
        obs = Observability()
        slo = obs.slo
        slo.rule_mutated("alice", 2, store="alice-store")
        slo.release_observed("alice", 1, store="alice-store")
        slo.release_observed("alice", 2, store="alice-store")
        slo.fail_closed_entered("alice-store", "alice")
        dump = json.dumps(slo.report())
        assert str(SAMPLE_VALUE) not in dump
        assert str(UCLA_LAT) not in dump

    def test_cost_record_export_redacts_hostile_fields(self):
        from repro.obs.costs import CostRecord

        record = CostRecord(
            trace_id="trace-000001",
            store="alice-store",
            endpoint="/api/query",
            consumer=str(UCLA_LAT),  # numeric-string laundering attempt
            contributor="alice",
        )
        exported = record.to_json()
        assert exported["Consumer"] == "[redacted]"
        assert exported["Store"] == "alice-store"

    def test_slow_query_trace_trees_are_redacted_at_export(self, system):
        obs = system.obs
        log = obs.costs
        with obs.tracer.start_span("evil") as span:
            token = log.start("alice-store")
            span.set_attribute("waveform", np.full(8, SAMPLE_VALUE))
            span.set_attribute("lat", UCLA_LAT)
            log.finish(token, endpoint="/api/query")
        dump = json.dumps(log.slow_queries())
        assert str(SAMPLE_VALUE) not in dump
        assert str(UCLA_LAT) not in dump
