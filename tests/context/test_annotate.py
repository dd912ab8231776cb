"""Tests for context annotation over packet streams."""

import hashlib
import json

import numpy as np
import pytest

from repro.collection.phone import SmartphoneAgent
from repro.context.annotate import ContextAnnotator, annotate_packets, label_accuracy
from repro.sensors.packets import SensorPacket
from repro.sensors.personas import make_persona
from repro.sensors.simulator import SimulatorConfig, TraceSimulator

from tests.conftest import MONDAY

HOUR_MS = 3_600_000


class TestAnnotator:
    def test_inferred_labels_replace_ground_truth(self, weekday_trace):
        packets = weekday_trace.all_packets_sorted()[:200]
        annotated = ContextAnnotator(window_ms=60_000).annotate(packets)
        assert len(annotated) == len(packets)
        # Context is inferred, not copied: drop one channel and re-infer.
        for pkt in annotated:
            assert "Activity" in pkt.context

    def test_annotation_preserves_payload(self, weekday_trace):
        packets = weekday_trace.all_packets_sorted()[:50]
        annotated = ContextAnnotator().annotate(packets)
        assert sorted(p.values.tobytes() for p in annotated) == sorted(
            p.values.tobytes() for p in packets
        )

    def test_windows_share_labels(self, weekday_trace):
        packets = weekday_trace.all_packets_sorted()[:100]
        annotated = ContextAnnotator(window_ms=60_000).annotate(packets)
        by_window = {}
        for pkt in annotated:
            by_window.setdefault(pkt.start_ms // 60_000, set()).add(
                tuple(sorted(pkt.context.items()))
            )
        for labels in by_window.values():
            assert len(labels) == 1

    def test_output_sorted_by_time(self, weekday_trace):
        packets = list(reversed(weekday_trace.all_packets_sorted()[:80]))
        annotated = ContextAnnotator().annotate(packets)
        starts = [p.start_ms for p in annotated]
        assert starts == sorted(starts)


def stamped(packets) -> list:
    """``(channel, start, labels)`` of every packet, in a canonical order."""
    return sorted((p.channel_name, p.start_ms, sorted(p.context.items())) for p in packets)


def first_hour(trace) -> list:
    """Every stream up to a ground-truth state boundary, so none is cut short."""
    return [p for p in trace.all_packets_sorted() if p.start_ms < MONDAY + HOUR_MS]


def packet(channel, start_ms, interval_ms, values):
    return SensorPacket(channel, start_ms, interval_ms, tuple(float(v) for v in values))


class TestWindowsAreSpansOfTime:
    """A window sees every sample whose timestamp falls inside it."""

    #: sha256 of ``stamped(...)`` over subject alice's Monday 07:00-10:00
    #: (Drive commute included, 8,868 packets, seed 1) at ``rate_scale=1.0``,
    #: taken at commit a970cf8 — the last one that grouped packets by start.
    PARENT_DIGEST = "0197580cfe13316a5b32f8f93f90c655e0dc79d42d255c6e07dc14e851add9df"

    def test_hardware_rate_labels_are_the_parent_commits(self):
        """Packets shorter than the window: same labels as grouping by start."""
        persona = make_persona("alice", commute_mode="Drive", stress_prob=0.25)
        trace = TraceSimulator(persona, SimulatorConfig(rate_scale=1.0), seed=1).run(MONDAY)
        morning = [
            p
            for p in trace.all_packets_sorted()
            if MONDAY + 7 * HOUR_MS <= p.start_ms < MONDAY + 10 * HOUR_MS
        ]
        assert len(morning) == 8_868
        rows = stamped(ContextAnnotator().annotate(morning))
        digest = hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()
        assert digest == self.PARENT_DIGEST

    def test_long_packet_feeds_each_window_its_own_rows(self):
        """A 40-sample packet at 6 s spacing starting 18 s into a minute
        crosses five windows; one-sample markers make each one inferred."""
        start = MONDAY + 18_000
        long_packet = packet("Respiration", start, 6_000, range(40))
        markers = [packet("MicAmplitude", MONDAY + k * 60_000, 1_000, [-60.0]) for k in range(5)]
        windows = ContextAnnotator().windows([long_packet, *markers])
        base = MONDAY // 60_000
        assert sorted(windows) == [base + k for k in range(5)]
        rows = [windows[base + k]["Respiration"].values for k in range(5)]
        assert [len(r) for r in rows] == [7, 10, 10, 10, 3]
        assert all(r.dtype == np.float64 for r in rows)
        assert np.concatenate(rows).tolist() == [float(v) for v in range(40)]
        for k, run in enumerate(rows):
            for value in run:
                assert (start + int(value) * 6_000) // 60_000 == base + k
        assert windows[base]["Respiration"].rate_hz == 1000.0 / 6_000

    def test_a_window_where_no_packet_starts_gets_no_entry(self):
        """The packet crosses windows 0-4 but only window 0 stamps anything;
        a GPS fix every five minutes leaves minutes 1-4 without a sample."""
        annotator = ContextAnnotator()
        crossing = packet("Respiration", MONDAY, 6_000, range(50))
        assert sorted(annotator.windows([crossing])) == [MONDAY // 60_000]
        gps = packet("GpsLat", MONDAY, 300_000, [34.0, 34.0])
        late = packet("MicAmplitude", MONDAY + 120_000, 1_000, [-60.0])
        windows = annotator.windows([gps, late])
        assert sorted(windows) == [MONDAY // 60_000, MONDAY // 60_000 + 2]
        assert set(windows[MONDAY // 60_000 + 2]) == {"MicAmplitude"}
        assert annotator.windows([]) == {}

    def test_channels_concatenate_across_packets_in_packet_order(self):
        first = packet("ECG", MONDAY, 10_000, [1, 2, 3])
        second = packet("ECG", MONDAY + 30_000, 10_000, [4, 5, 6, 7])
        windows = ContextAnnotator().windows([first, second])
        samples = windows[MONDAY // 60_000]["ECG"].values
        assert samples.dtype == np.float64
        assert samples.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_categories_without_their_channels_are_still_omitted(self, weekday_trace):
        packets = [p for p in first_hour(weekday_trace) if p.channel_name != "Respiration"]
        for pkt in ContextAnnotator().annotate(packets):
            assert set(pkt.context) == {"Activity", "Conversation"}

    def test_partial_first_window_is_inferred_from_what_it_has(self):
        """An upload boundary mid-minute: the call's first window holds one
        sample and is labelled from it, with no state carried in."""
        annotator = ContextAnnotator()
        tail = packet("Respiration", MONDAY + 59_000, 5_000, [19.0] + [14.0] * 17)
        (only,) = annotator.annotate([tail])
        assert only.context["Stress"] == "Stressed"  # the one sample in minute 0
        assert annotator.annotate([packet("AccelX", MONDAY, 250, [0.1])]) != []

    def test_annotate_and_collect_stamp_the_same_labels(self, weekday_trace):
        packets = first_hour(weekday_trace)
        agent = SmartphoneAgent("alice", "alice-store", client=None)
        assert stamped(agent.collect(packets, upload=False)) == stamped(
            ContextAnnotator().annotate(packets)
        )

    def test_packets_are_never_split_retimed_or_reordered_in_their_stream(self, weekday_trace):
        packets = first_hour(weekday_trace)
        agent = SmartphoneAgent("alice", "alice-store", client=None)
        kept = agent.collect(packets, upload=False)
        for channel in {p.channel_name for p in packets}:
            assert [p for p in kept if p.channel_name == channel] == [
                p for p in packets if p.channel_name == channel
            ]


class TestAccuracy:
    """End-to-end inference accuracy on the simulated day.

    The thresholds encode the reproduction claim that rule conditions on
    context are meaningful: they only work if inference mostly agrees with
    ground truth.
    """

    @pytest.fixture(scope="class")
    def annotated(self, weekday_trace):
        return annotate_packets(weekday_trace.all_packets_sorted(), window_ms=60_000)

    def test_activity_accuracy(self, weekday_trace, annotated):
        acc = label_accuracy(annotated, weekday_trace.state_at)
        assert acc["Activity"] > 0.85

    def test_stress_accuracy(self, weekday_trace, annotated):
        acc = label_accuracy(annotated, weekday_trace.state_at)
        assert acc["Stress"] > 0.9

    def test_smoking_accuracy(self, weekday_trace, annotated):
        acc = label_accuracy(annotated, weekday_trace.state_at)
        assert acc["Smoking"] > 0.9

    def test_conversation_accuracy(self, weekday_trace, annotated):
        acc = label_accuracy(annotated, weekday_trace.state_at)
        assert acc["Conversation"] > 0.8
