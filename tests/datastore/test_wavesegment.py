"""Tests for the wave-segment ADT: validation, merge, slice, JSON."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.datastore.wavesegment import TIME_CHANNEL, WaveSegment, segment_from_packet
from repro.exceptions import ValidationError
from repro.sensors.packets import SensorPacket
from repro.util.geo import LatLon
from repro.util.timeutil import Interval

from tests.conftest import MONDAY, UCLA, make_segment


class TestValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            make_segment(n=0)

    def test_rejects_channel_count_mismatch(self):
        with pytest.raises(ValidationError):
            WaveSegment("a", ("ECG",), MONDAY, 1000, np.zeros((4, 2)))

    def test_rejects_duplicate_channels(self):
        with pytest.raises(ValidationError):
            WaveSegment("a", ("ECG", "ECG"), MONDAY, 1000, np.zeros((4, 2)))

    def test_rejects_nonuniform_without_time_column(self):
        with pytest.raises(ValidationError):
            WaveSegment("a", ("ECG",), MONDAY, None, np.zeros((4, 1)))

    def test_values_are_frozen(self):
        seg = make_segment()
        with pytest.raises(ValueError):
            seg.values[0, 0] = 99.0

    def test_stable_segment_id(self):
        assert make_segment().segment_id == make_segment().segment_id


class TestGeometry:
    def test_uniform_end_and_times(self):
        seg = make_segment(start_ms=1000, n=4, interval_ms=250)
        assert seg.end_ms == 2000
        assert list(seg.sample_times()) == [1000, 1250, 1500, 1750]

    def test_nonuniform_times_from_column(self):
        times = np.array([[0.0, 1.0], [100.0, 2.0], [500.0, 3.0]])
        seg = WaveSegment("a", (TIME_CHANNEL, "ECG"), 0, None, times)
        assert list(seg.sample_times()) == [0, 100, 500]
        assert seg.end_ms == 900  # last + trailing gap

    def test_channel_values(self):
        seg = make_segment(channels=("ECG", "Respiration"), n=3)
        assert list(seg.channel_values("Respiration")) == [1.0, 3.0, 5.0]
        with pytest.raises(ValidationError):
            seg.channel_values("AccelX")

    def test_storage_bytes_tracks_blob(self):
        small = make_segment(n=4)
        big = make_segment(n=400)
        assert big.storage_bytes() > small.storage_bytes()


class TestMerge:
    def test_consecutive_same_stream_merges(self):
        a = make_segment(start_ms=0, n=4, interval_ms=250)
        b = make_segment(start_ms=1000, n=4, interval_ms=250)
        assert a.can_merge(b)
        merged = a.merge(b)
        assert merged.n_samples == 8
        assert merged.start_ms == 0
        assert merged.end_ms == 2000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"start_ms": 1250},  # gap
            {"interval_ms": 500, "start_ms": 1000},  # different rate
            {"channels": ("Respiration",), "start_ms": 1000},  # different channel
            {"location": LatLon(35.0, -118.0), "start_ms": 1000},  # moved
            {"contributor": "eve", "start_ms": 1000},  # different owner
            {
                "context": {"Activity": "Drive"},
                "start_ms": 1000,
            },  # different context annotation
        ],
    )
    def test_paper_merge_preconditions(self, kwargs):
        """Merging requires consecutive timestamps, same location, same
        channels (Section 5.1) — plus same owner/interval/context."""
        a = make_segment(start_ms=0, n=4, interval_ms=250)
        b = make_segment(n=4, interval_ms=kwargs.pop("interval_ms", 250), **kwargs)
        assert not a.can_merge(b)
        with pytest.raises(ValidationError):
            a.merge(b)

    def test_merge_preserves_sample_order(self):
        a = make_segment(start_ms=0, n=3, values=np.array([[1.0], [2.0], [3.0]]))
        b = make_segment(start_ms=3000, n=3, values=np.array([[4.0], [5.0], [6.0]]))
        merged = a.merge(b)
        assert list(merged.channel_values("ECG")) == [1, 2, 3, 4, 5, 6]


class TestSliceAndProject:
    def test_slice_inside(self):
        seg = make_segment(start_ms=0, n=10, interval_ms=100)
        part = seg.slice_time(Interval(300, 700))
        assert part.start_ms == 300
        assert part.n_samples == 4

    def test_slice_disjoint_returns_none(self):
        seg = make_segment(start_ms=0, n=10, interval_ms=100)
        assert seg.slice_time(Interval(5000, 6000)) is None

    def test_slice_whole_returns_self(self):
        seg = make_segment(start_ms=0, n=10, interval_ms=100)
        assert seg.slice_time(Interval(0, 10_000)) is seg

    def test_select_channels_subset(self):
        seg = make_segment(channels=("ECG", "Respiration"), n=3)
        part = seg.select_channels(["Respiration"])
        assert part.channels == ("Respiration",)
        assert part.n_samples == 3

    def test_select_channels_none_left(self):
        seg = make_segment(channels=("ECG",), n=3)
        assert seg.select_channels(["AccelX"]) is None

    def test_select_keeps_time_column_for_nonuniform(self):
        values = np.array([[0.0, 1.0, 9.0], [100.0, 2.0, 8.0]])
        seg = WaveSegment("a", (TIME_CHANNEL, "ECG", "Respiration"), 0, None, values)
        part = seg.select_channels(["ECG"])
        assert part.channels == (TIME_CHANNEL, "ECG")

    def test_with_context_and_bare(self):
        seg = make_segment()
        ctx = seg.with_context({"Activity": "Drive"})
        assert ctx.context == {"Activity": "Drive"}
        assert ctx.segment_id != ""
        bare = ctx.bare()
        assert bare.location is None and bare.context == {}
        assert (bare.segment_id, bare.channels, bare.start_ms, bare.interval_ms) == (
            ctx.segment_id, ctx.channels, ctx.start_ms, ctx.interval_ms
        )
        assert bare.values is ctx.values
        assert set(bare.to_json()) == set(ctx.to_json()) - {"Context"}


class TestJson:
    def test_roundtrip(self):
        seg = make_segment(channels=("ECG", "Respiration"), n=7)
        again = WaveSegment.from_json(seg.to_json())
        assert again.channels == seg.channels
        assert np.array_equal(again.values, seg.values)
        assert again.location == seg.location
        assert again.context == seg.context

    def test_roundtrip_no_location(self):
        seg = make_segment(location=None)
        again = WaveSegment.from_json(seg.to_json())
        assert again.location is None

    def test_from_json_missing_keys(self):
        with pytest.raises(Exception):
            WaveSegment.from_json({"Contributor": "a"})

    @given(
        st.integers(min_value=1, max_value=100),
        st.integers(min_value=1, max_value=5000),
    )
    def test_roundtrip_property(self, n, interval):
        seg = make_segment(n=n, interval_ms=interval)
        again = WaveSegment.from_json(seg.to_json())
        assert again.end_ms == seg.end_ms
        assert np.array_equal(again.values, seg.values)


class TestFromPacket:
    def test_packet_fields_carried_over(self):
        pkt = SensorPacket("ECG", 5000, 250, (1.0, 2.0, 3.0), UCLA, {"Activity": "Walk"})
        seg = segment_from_packet("alice", pkt)
        assert seg.contributor == "alice"
        assert seg.channels == ("ECG",)
        assert seg.start_ms == 5000
        assert seg.n_samples == 3
        assert seg.context == {"Activity": "Walk"}
