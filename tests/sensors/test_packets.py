"""Tests for sensor packets and packetization."""

import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.exceptions import ValidationError
from repro.sensors.packets import SensorPacket, decode_upload, encode_upload, packetize
from repro.util.geo import LatLon

LOC = LatLon(34.0, -118.0)


def make_packet(start=0, n=4, interval=250, channel="ECG"):
    return SensorPacket(channel, start, interval, tuple(float(i) for i in range(n)), LOC)


class TestValidation:
    def test_rejects_empty_values(self):
        with pytest.raises(ValidationError):
            SensorPacket("ECG", 0, 250, ())

    @pytest.mark.parametrize(
        "values",
        [
            np.array([]),
            np.zeros((2, 2)),
            np.float64(3.0),
            4.5,
            "1.5",
            ("1.5", "2"),
            [[1.0, 2.0]],
            [None],
            [object()],
            np.array([1 + 2j]),
            np.array([True, False]),
        ],
        ids=lambda v: f"{type(v).__name__}:{np.shape(v)}",
    )
    def test_a_packet_says_what_is_wrong_with_its_samples(self, values):
        """At 3541740 an ndarray died in ``if not self.values`` with numpy's
        "truth value is ambiguous", and text or 2-D samples were accepted
        here and failed later, inside ``encode_upload``."""
        with pytest.raises(ValidationError, match="at least one sample.*1-D run of numbers"):
            SensorPacket("ECG", 0, 250, values)

    @pytest.mark.parametrize(
        "values",
        [(1, 2, 3), [1.0, 2.0, 3.0], range(1, 4), np.arange(1, 4), np.arange(1.0, 4.0),
         np.array([1, 2, 3], dtype=np.float32), np.arange(0.0, 6.0)[1:6:2] / 2 + 0.5],
        ids=lambda v: type(v).__name__,
    )  # fmt: skip
    def test_anything_numeric_and_one_dimensional_is_converted_once(self, values):
        pkt = SensorPacket("ECG", 0, 250, values)
        assert type(pkt.values) is np.ndarray and pkt.values.dtype == np.float64
        assert pkt.values.tolist() == [1.0, 2.0, 3.0]
        assert not pkt.values.flags.writeable
        assert pkt == SensorPacket("ECG", 0, 250, (1.0, 2.0, 3.0))

    def test_rejects_bad_interval(self):
        with pytest.raises(ValidationError):
            SensorPacket("ECG", 0, 0, (1.0,))

    def test_rejects_unknown_channel(self):
        with pytest.raises(Exception):
            SensorPacket("Sonar", 0, 250, (1.0,))


class TestValuesAreAReadOnlyArray:
    def test_a_packet_never_aliases_memory_someone_can_write(self):
        source = np.array([1.0, 2.0, 3.0])
        pkt = SensorPacket("ECG", 0, 250, source)
        source[0] = 99.0
        assert pkt.values.tolist() == [1.0, 2.0, 3.0]
        assert not np.shares_memory(pkt.values, source)
        with pytest.raises(ValueError, match="read-only"):
            pkt.values[0] = 99.0

    def test_a_read_only_array_is_adopted_not_copied(self):
        frozen = np.array([1.0, 2.0, 3.0, 4.0])
        frozen.setflags(write=False)
        pkt = SensorPacket("ECG", 0, 250, frozen[1:3])
        assert np.shares_memory(pkt.values, frozen) and pkt.values.tolist() == [2.0, 3.0]

    def test_packetize_copies_the_run_once_and_slices_views(self):
        run = np.arange(150.0)
        packets = packetize("ECG", 0, 250, run)
        run[:] = -1.0
        assert np.concatenate([p.values for p in packets]).tolist() == list(range(150))
        assert all(not p.values.flags.writeable for p in packets)
        assert len({id(p.values.base) for p in packets}) == 1  # slices of the one copy

    def test_equal_streams_compare_equal_however_they_were_built(self):
        values = [0.1 * i for i in range(150)]
        from_tuples = [
            SensorPacket("ECG", i * 64 * 250, 250, tuple(values[i * 64 : (i + 1) * 64]), LOC)
            for i in range(3)
        ]
        from_arrays = packetize("ECG", 0, 250, np.array(values), location=LOC)
        assert from_tuples == from_arrays and from_arrays == from_tuples
        assert [hash(p) for p in from_tuples] == [hash(p) for p in from_arrays]
        assert len(set(from_tuples + from_arrays)) == 3
        assert from_arrays[0] != from_arrays[1]
        assert from_arrays[0] != SensorPacket("ECG", 0, 250, values[:63] + [0.0], LOC)
        assert from_arrays[0] != SensorPacket("ECG", 0, 250, values[:63], LOC)
        assert from_arrays[0] != SensorPacket("ECG", 0, 250, values[:64], None)
        assert from_arrays[0] != "ECG" and from_arrays[0] != tuple(values[:64])

    def test_context_stays_out_of_equality_and_hash(self):
        a = SensorPacket("ECG", 0, 250, (1.0,), LOC, {"Activity": "Still"})
        b = SensorPacket("ECG", 0, 250, np.array([1.0]), LOC, {"Activity": "Drive"})
        assert a == b and hash(a) == hash(b)

    def test_signed_zero_and_subnormals_keep_their_bits(self):
        awkward = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308)
        want = struct.pack("<6d", *awkward)
        built = SensorPacket("ECG", 0, 250, awkward)
        (sent,) = decode_upload(encode_upload([built]))
        (cut,) = packetize("ECG", 0, 250, np.array(awkward))
        for pkt in (built, sent, cut):
            assert pkt.values.tobytes() == want
        assert built == sent == cut
        # equal by value, as tuples were: == does not tell -0.0 from 0.0
        assert SensorPacket("ECG", 0, 250, (0.0,)) == SensorPacket("ECG", 0, 250, (-0.0,))


class TestGeometry:
    def test_end_is_half_open(self):
        pkt = make_packet(start=1000, n=4, interval=250)
        assert pkt.end_ms == 2000
        assert pkt.sample_times() == [1000, 1250, 1500, 1750]

    def test_follows(self):
        a = make_packet(start=0, n=4, interval=250)
        b = make_packet(start=1000, n=4, interval=250)
        c = make_packet(start=1250, n=4, interval=250)
        assert b.follows(a)
        assert not c.follows(a)
        assert not a.follows(b)

    def test_json_roundtrip(self):
        pkt = SensorPacket("ECG", 5, 250, (1.0, 2.0), LOC, {"Activity": "Still"})
        (again,) = decode_upload(encode_upload([pkt]))
        assert again == pkt
        assert again.context == {"Activity": "Still"}


class TestPacketize:
    def test_splits_into_hardware_size(self):
        packets = packetize("ECG", 0, 250, list(range(150)), location=LOC)
        # Zephyr packet size is 64: 150 samples -> 64 + 64 + 22.
        assert [len(p.values) for p in packets] == [64, 64, 22]

    def test_packets_are_seamless(self):
        packets = packetize("ECG", 0, 250, list(range(150)))
        for prev, nxt in zip(packets, packets[1:]):
            assert nxt.follows(prev)

    def test_explicit_packet_size(self):
        packets = packetize("ECG", 0, 250, list(range(10)), packet_samples=4)
        assert [len(p.values) for p in packets] == [4, 4, 2]

    def test_rejects_bad_packet_size(self):
        with pytest.raises(ValidationError):
            packetize("ECG", 0, 250, [1.0], packet_samples=0)

    @given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=64))
    def test_no_samples_lost_or_reordered(self, n, size):
        values = [float(i) for i in range(n)]
        packets = packetize("ECG", 0, 250, values, packet_samples=size)
        reassembled = [v for p in packets for v in p.values]
        assert reassembled == values
