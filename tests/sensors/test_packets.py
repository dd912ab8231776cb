"""Tests for sensor packets and packetization."""

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

    def test_rejects_bad_interval(self):
        with pytest.raises(ValidationError):
            SensorPacket("ECG", 0, 0, (1.0,))

    def test_rejects_unknown_channel(self):
        with pytest.raises(Exception):
            SensorPacket("Sonar", 0, 250, (1.0,))


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
