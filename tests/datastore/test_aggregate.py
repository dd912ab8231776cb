"""Tests for windowed aggregate queries."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datastore.aggregate import (
    AGGREGATE_FUNCTIONS,
    AggregateRow,
    AggregateSpec,
    _reduce,
    aggregate_released,
    aggregate_segments,
)
from repro.datastore.wavesegment import TIME_CHANNEL, WaveSegment
from repro.exceptions import QueryError

from tests.conftest import MONDAY, make_segment


class TestSpec:
    def test_validates_function(self):
        with pytest.raises(QueryError):
            AggregateSpec("median-ish", 1000)

    def test_validates_window(self):
        with pytest.raises(QueryError):
            AggregateSpec("mean", 0)

    def test_json_roundtrip(self):
        spec = AggregateSpec("max", 60_000)
        assert AggregateSpec.from_json(spec.to_json()) == spec

    def test_from_json_rejects_garbage(self):
        with pytest.raises(QueryError):
            AggregateSpec.from_json(["mean"])
        with pytest.raises(QueryError):
            AggregateSpec.from_json({"Function": "mean"})


class TestAggregation:
    def segment(self, start=MONDAY, n=60, values=None):
        if values is None:
            values = np.arange(n, dtype=float).reshape(-1, 1)
        return make_segment(start_ms=start, n=n, interval_ms=1000, values=values)

    def test_mean_per_window(self):
        seg = self.segment(n=120)  # two minutes at 1 Hz, values 0..119
        rows = aggregate_segments([seg], AggregateSpec("mean", 60_000))
        assert len(rows) == 2
        assert rows[0].value == pytest.approx(np.mean(range(60)))
        assert rows[1].value == pytest.approx(np.mean(range(60, 120)))
        assert rows[0].count == rows[1].count == 60

    @pytest.mark.parametrize(
        "function,expected",
        [("min", 0.0), ("max", 59.0), ("count", 60.0), ("sum", float(sum(range(60))))],
    )
    def test_other_functions(self, function, expected):
        seg = self.segment(n=60)
        (row,) = aggregate_segments([seg], AggregateSpec(function, 60_000))
        assert row.value == pytest.approx(expected)

    def test_windows_align_across_segments(self):
        a = self.segment(start=MONDAY, n=30)
        b = self.segment(start=MONDAY + 30_000, n=30)
        (row,) = aggregate_segments([a, b], AggregateSpec("count", 60_000))
        assert row.count == 60

    def test_multi_channel_rows(self):
        seg = make_segment(
            channels=("ECG", "Respiration"),
            n=60,
            interval_ms=1000,
            values=np.column_stack([np.full(60, 70.0), np.full(60, 14.0)]),
        )
        rows = aggregate_segments([seg], AggregateSpec("mean", 60_000))
        by_channel = {r.channel: r.value for r in rows}
        assert by_channel == {"ECG": 70.0, "Respiration": 14.0}

    def test_rows_sorted(self):
        segs = [self.segment(start=MONDAY + k * 60_000, n=60) for k in (2, 0, 1)]
        rows = aggregate_segments(segs, AggregateSpec("mean", 60_000))
        starts = [r.window_start_ms for r in rows]
        assert starts == sorted(starts)

    def test_row_json_roundtrip(self):
        row = AggregateRow("ECG", MONDAY, 70.5, 60)
        assert AggregateRow.from_json(row.to_json()) == row


def _masked_rows(segments, spec):
    """The reference: one mask per (segment, channel, window), as the
    aggregate was first written."""
    buckets = {}
    for segment in segments:
        window_ids = segment.sample_times() // spec.window_ms
        for channel in segment.channels:
            if channel == TIME_CHANNEL:
                continue
            values = segment.channel_values(channel)
            for window_id in np.unique(window_ids):
                mask = window_ids == window_id
                buckets.setdefault((channel, int(window_id)), []).append(values[mask])
    return [
        AggregateRow(channel, window_id * spec.window_ms,
                     _reduce(spec.function, np.concatenate(chunks)), sum(map(len, chunks)))
        for (channel, window_id), chunks in sorted(buckets.items())
    ]  # fmt: skip


@st.composite
def aggregated_segments(draw):
    """Uniform segments, and non-uniform ones whose Time column runs in
    any order, repeats and straddles window edges."""
    segments = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        n = draw(st.integers(min_value=1, max_value=40))
        values = np.array(
            draw(st.lists(st.floats(-1e6, 1e6), min_size=2 * n, max_size=2 * n))
        ).reshape(n, 2)
        if draw(st.booleans()):
            interval = draw(st.integers(min_value=1, max_value=5_000))
            segments.append(WaveSegment("alice", ("ECG", "Respiration"), MONDAY, interval, values))
        else:
            times = draw(st.lists(st.integers(0, 300_000), min_size=n, max_size=n))
            values[:, 0] = MONDAY + np.array(times)
            segments.append(WaveSegment("alice", (TIME_CHANNEL, "ECG"), MONDAY, None, values))
    return segments


@settings(max_examples=150, deadline=None)
@given(
    aggregated_segments(),
    st.sampled_from(AGGREGATE_FUNCTIONS),
    st.sampled_from([1, 1_000, 60_000]),
)
def test_grouping_by_window_once_gives_the_masked_rows_bit_for_bit(segments, function, window):
    """Each window gets the same samples in the same order as one mask
    per window gave it, so every row is the same float, not a near one."""
    spec = AggregateSpec(function, window)
    got, want = aggregate_segments(segments, spec), _masked_rows(segments, spec)
    assert [(r.channel, r.window_start_ms, r.count) for r in got] == [
        (r.channel, r.window_start_ms, r.count) for r in want
    ]
    assert np.array([r.value for r in got]).tobytes() == np.array([r.value for r in want]).tobytes()


class TestRuleInteraction:
    def test_aggregates_respect_rules_end_to_end(self, system):
        """A consumer's aggregate sees only rule-released channels."""
        from repro.datastore.query import DataQuery
        from repro.rules.model import ALLOW, Rule, abstraction

        alice = system.add_contributor("alice")
        alice.upload_segments(
            [
                make_segment(
                    channels=("ECG", "AccelX"),
                    n=120,
                    interval_ms=1000,
                    values=np.column_stack([np.full(120, 70.0), np.full(120, 1.0)]),
                )
            ]
        )
        alice.flush()
        alice.add_rule(Rule(consumers=("bob",), action=ALLOW))
        alice.add_rule(Rule(consumers=("bob",), action=abstraction(Stress="NotShare")))
        bob = system.add_consumer("bob")
        bob.add_contributors(["alice"])

        rows = bob.fetch_aggregate("alice", AggregateSpec("mean", 60_000), DataQuery())
        channels = {r.channel for r in rows}
        # ECG is closed off (stress not shared raw); AccelX aggregates fine.
        assert channels == {"AccelX"}
        assert all(r.value == 1.0 for r in rows)

    def test_owner_aggregates_everything(self, system):
        from repro.datastore.aggregate import AggregateSpec as Spec

        alice = system.add_contributor("alice")
        alice.upload_segments([make_segment(n=60, interval_ms=1000)])
        alice.flush()
        body = alice.client.post(
            "https://alice-store/api/aggregate",
            {
                "Contributor": "alice",
                "Query": {},
                "Aggregate": Spec("count", 60_000).to_json(),
            },
        )
        assert sum(r["Count"] for r in body["Rows"]) == 60

    def test_aggregate_is_audited(self, system):
        from repro.datastore.aggregate import AggregateSpec as Spec
        from repro.rules.model import ALLOW, Rule

        alice = system.add_contributor("alice")
        alice.upload_segments([make_segment(n=16)])
        alice.flush()
        alice.add_rule(Rule(consumers=("bob",), action=ALLOW))
        bob = system.add_consumer("bob")
        bob.add_contributors(["alice"])
        bob.fetch_aggregate("alice", Spec("mean", 60_000))
        trail = alice.audit_trail()
        assert trail[-1].query.get("Aggregate") == {"Function": "mean", "WindowMs": 60_000}

    def test_released_without_segments_aggregate_empty(self):
        from repro.rules.engine import ReleasedSegment
        from repro.util.timeutil import Interval

        items = [
            ReleasedSegment(
                contributor="alice",
                interval=Interval(0, 10),
                segment=None,
                context_labels={"Stress": "Stressed"},
            )
        ]
        assert aggregate_released(items, AggregateSpec("mean", 60_000)) == []
