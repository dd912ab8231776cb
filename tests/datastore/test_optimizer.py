"""Tests for the wave-segment merge optimizer (paper Section 5.1)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datastore.optimizer import MergePolicy, SegmentOptimizer
from repro.datastore.wavesegment import WaveSegment, segment_from_packet
from repro.exceptions import ValidationError
from repro.sensors.packets import SensorPacket, packetize
from repro.util.geo import LatLon

LOC = LatLon(34.0, -118.0)


def packets_to_segments(n_samples=640, packet_samples=64, start=0, location=LOC, context=None):
    packets = packetize(
        "ECG",
        start,
        250,
        list(range(n_samples)),
        packet_samples=packet_samples,
        location=location,
        context=context or {},
    )
    return [segment_from_packet("alice", p) for p in packets]


class TestPolicy:
    def test_rejects_bad_max_samples(self):
        with pytest.raises(ValidationError):
            MergePolicy(max_samples=0)


class TestIngestMerging:
    def test_seamless_stream_buffers_until_max(self):
        opt = SegmentOptimizer(MergePolicy(max_samples=256))
        finalized = []
        for seg in packets_to_segments(n_samples=640, packet_samples=64):
            finalized.extend(opt.add(seg))
        finalized.extend(opt.flush())
        # 640 samples with a 256 cap: 256, 256, 128.
        assert [s.n_samples for s in finalized] == [256, 256, 128]
        assert opt.merged_count > 0

    def test_gap_splits_streams(self):
        opt = SegmentOptimizer(MergePolicy(max_samples=10_000))
        first = packets_to_segments(n_samples=128, start=0)
        second = packets_to_segments(n_samples=128, start=1_000_000)  # gap
        finalized = []
        for seg in first + second:
            finalized.extend(opt.add(seg))
        finalized.extend(opt.flush())
        assert [s.n_samples for s in finalized] == [128, 128]

    def test_location_change_splits(self):
        opt = SegmentOptimizer(MergePolicy(max_samples=10_000))
        here = packets_to_segments(n_samples=128, start=0, location=LOC)
        there = packets_to_segments(
            n_samples=128, start=128 * 250, location=LatLon(35.0, -118.0)
        )
        finalized = []
        for seg in here + there:
            finalized.extend(opt.add(seg))
        finalized.extend(opt.flush())
        assert sorted(s.n_samples for s in finalized) == [128, 128]

    def test_context_change_splits(self):
        opt = SegmentOptimizer(MergePolicy(max_samples=10_000))
        still = packets_to_segments(n_samples=128, start=0, context={"Activity": "Still"})
        drive = packets_to_segments(
            n_samples=128, start=128 * 250, context={"Activity": "Drive"}
        )
        finalized = []
        for seg in still + drive:
            finalized.extend(opt.add(seg))
        finalized.extend(opt.flush())
        assert sorted(s.n_samples for s in finalized) == [128, 128]

    def test_disabled_policy_passes_through(self):
        opt = SegmentOptimizer(MergePolicy(enabled=False))
        segments = packets_to_segments(n_samples=640)
        out = []
        for seg in segments:
            out.extend(opt.add(seg))
        out.extend(opt.flush())
        assert len(out) == len(segments)
        assert opt.merged_count == 0

    def test_oversized_segment_finalizes_immediately(self):
        opt = SegmentOptimizer(MergePolicy(max_samples=32))
        (seg,) = packets_to_segments(n_samples=64, packet_samples=64)
        assert opt.add(seg) == [seg]
        assert opt.flush() == []

    def test_values_preserved_across_merging(self):
        opt = SegmentOptimizer(MergePolicy(max_samples=4096))
        finalized = []
        for seg in packets_to_segments(n_samples=640):
            finalized.extend(opt.add(seg))
        finalized.extend(opt.flush())
        merged_values = np.concatenate([s.channel_values("ECG") for s in finalized])
        assert list(merged_values) == list(range(640))


class TestCompaction:
    def test_compact_merges_existing_list(self):
        segments = packets_to_segments(n_samples=640, packet_samples=64)
        opt = SegmentOptimizer(MergePolicy(max_samples=4096))
        out = opt.compact(segments)
        assert len(out) == 1
        assert out[0].n_samples == 640

    def test_compact_respects_max_samples(self):
        segments = packets_to_segments(n_samples=640, packet_samples=64)
        opt = SegmentOptimizer(MergePolicy(max_samples=256))
        out = opt.compact(segments)
        assert all(s.n_samples <= 256 for s in out)
        assert sum(s.n_samples for s in out) == 640

    def test_compact_handles_unsorted_input(self):
        segments = packets_to_segments(n_samples=256, packet_samples=64)
        opt = SegmentOptimizer(MergePolicy(max_samples=4096))
        out = opt.compact(list(reversed(segments)))
        assert len(out) == 1
        assert list(out[0].channel_values("ECG")) == list(range(256))

    def test_compact_disabled_is_identity_sized(self):
        segments = packets_to_segments(n_samples=256, packet_samples=64)
        opt = SegmentOptimizer(MergePolicy(enabled=False))
        assert len(opt.compact(segments)) == len(segments)


# ---------------------------------------------------------------------------
# An open run is built once: same segments as the parent's left fold of merge
# ---------------------------------------------------------------------------


class ParentOptimizer:
    """``SegmentOptimizer`` as it stood at 3541740, kept as the reference:
    the open segment is rebuilt by ``WaveSegment.merge`` for every packet."""

    def __init__(self, policy):
        self.policy, self.buffers, self.merged_count = policy, {}, 0

    def add(self, segment):
        if not self.policy.enabled or not segment.is_uniform:
            return [segment]
        key = SegmentOptimizer._stream_key(segment)
        buffered, finalized = self.buffers.get(key), []
        if buffered is not None:
            if buffered.can_merge(segment):
                merged = buffered.merge(segment)
                self.merged_count += 1
                if merged.n_samples >= self.policy.max_samples:
                    finalized.append(merged)
                    del self.buffers[key]
                else:
                    self.buffers[key] = merged
                return finalized
            finalized.append(buffered)
        if segment.n_samples >= self.policy.max_samples:
            finalized.append(segment)
            self.buffers.pop(key, None)
        else:
            self.buffers[key] = segment
        return finalized

    def flush(self):
        out = list(self.buffers.values())
        self.buffers.clear()
        return out

    def compact(self, segments):
        groups, out = {}, []
        for segment in segments:
            if not self.policy.enabled or not segment.is_uniform:
                out.append(segment)
            else:
                groups.setdefault(SegmentOptimizer._stream_key(segment), []).append(segment)
        for group in groups.values():
            group.sort(key=lambda s: s.start_ms)
            current = group[0]
            for nxt in group[1:]:
                if (
                    current.n_samples + nxt.n_samples <= self.policy.max_samples
                    and current.can_merge(nxt)
                ):
                    current = current.merge(nxt)
                else:
                    out.append(current)
                    current = nxt
            out.append(current)
        out.sort(key=lambda s: (s.start_ms, s.channels))
        return out


def fields(segment):
    return (
        segment.segment_id,
        segment.contributor,
        segment.channels,
        segment.start_ms,
        segment.interval_ms,
        segment.values.shape,
        segment.values.tobytes(),
        segment.location,
        segment.context,
    )


_CONTEXTS = ({"Activity": "Still"}, {"Activity": "Drive"}, {})
_STEP = st.tuples(
    st.sampled_from(["ECG", "AccelX"]),
    st.integers(min_value=1, max_value=9),  # samples in the packet
    st.sampled_from([0, 0, 0, 1, 7]),  # intervals skipped before it: a gap
    st.sampled_from([0, 0, 0, 1, 2]),  # context after it: a flip ends the run
    st.sampled_from([LOC, LOC, LOC, None]),
    st.booleans(),  # flush after it
)


@st.composite
def packet_streams(draw):
    """Two interleaved channels with gaps, context and location flips."""
    clock, stream, context = {"ECG": 0, "AccelX": 0}, [], 0
    for name, n, gap, flip, location, flush in draw(st.lists(_STEP, max_size=40)):
        interval = 4 if name == "ECG" else 20
        start = clock[name] + gap * interval
        values = np.arange(len(stream), len(stream) + n) * 0.1
        packet = SensorPacket(name, start, interval, values, location, dict(_CONTEXTS[context]))
        stream.append((segment_from_packet("alice", packet), flush and flip == 2))
        clock[name], context = packet.end_ms, flip or context
    return stream


@settings(max_examples=200, deadline=None)
@given(
    packet_streams(),
    st.sampled_from([1, 4, 16, 64, 4096]),
    st.booleans(),
)
def test_finalised_segments_equal_the_parent_s_fold_of_merge(stream, max_samples, enabled):
    policy = MergePolicy(max_samples=max_samples, enabled=enabled)
    ours, parent = SegmentOptimizer(policy), ParentOptimizer(policy)
    got, want, built = [], [], []
    validate = WaveSegment.__post_init__

    def counted(segment):
        built.append(segment)
        validate(segment)

    with mock.patch.object(WaveSegment, "__post_init__", counted):
        for segment, flush in stream:
            got.extend(ours.add(segment))
            if flush:
                got.extend(ours.flush())
        got.extend(ours.flush())
    for segment, flush in stream:
        want.extend(parent.add(segment))
        if flush:
            want.extend(parent.flush())
    want.extend(parent.flush())
    assert [fields(s) for s in got] == [fields(s) for s in want]
    assert ours.merged_count == parent.merged_count
    assert ours._buffers == {} and all(not s.values.flags.writeable for s in got)
    # a run becomes a WaveSegment once, when it closes — not once per packet
    offered = {id(segment) for segment, _ in stream}
    assert len(built) == sum(id(s) not in offered for s in got) <= parent.merged_count

    # the same packets offered as cuts (``SegmentStore.add_packets``'s way in):
    # the same segments, each run built — and checked — once, when it closes,
    # a run of one packet stored under that packet's id with samples of its own
    cuts, from_cuts, built[:] = SegmentOptimizer(policy), [], []
    with mock.patch.object(WaveSegment, "__post_init__", counted):
        for segment, flush in stream:
            key = SegmentOptimizer._stream_key(segment)
            from_cuts.extend(
                cuts.add_cut(key, segment.start_ms, segment.values, segment.segment_id,
                             segment.context)  # fmt: skip
            )
            if flush:
                from_cuts.extend(cuts.flush())
        from_cuts.extend(cuts.flush())
    assert [fields(s) for s in from_cuts] == [fields(s) for s in want]
    assert cuts.merged_count == parent.merged_count
    assert [id(s) for s in built] == [id(s) for s in from_cuts]
    assert all(s.values.base is None for s in from_cuts)

    assert [fields(s) for s in SegmentOptimizer(policy).compact(got)] == [
        fields(s) for s in ParentOptimizer(policy).compact(want)
    ]
    one_by_one = [segment for segment, _ in stream]
    assert [fields(s) for s in SegmentOptimizer(policy).compact(one_by_one)] == [
        fields(s) for s in ParentOptimizer(policy).compact(one_by_one)
    ]
