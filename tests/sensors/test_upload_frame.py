"""The upload frame: ``encode_upload`` / ``decode_upload``.

A phone upload travels as ``{"Captures": [[Location, Context], …],
"Streams": [[Channel, SamplingInterval, capture], …], "Packets": [[stream,
start_ms, count], …], "Values": <one blob>}``: what the channels of an
upload share (location, labels) is a capture written once per frame, what
consecutive packets of one channel share (channel, interval, capture) a
stream written once, and each packet is a row of three integers.  These
tests hold the pair to being lossless bit for bit over every packet list a
phone can hold, however its streams interleave; to writing one canonical
frame; to refusing non-finite samples on both sides on purpose; and to
refusing — whole, never in part — a frame whose rows, streams or captures
do not parse, or whose counts do not consume its vector exactly, so that
the store a refused request was sent to is exactly the store it was before.
"""

import base64
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datastore.codec import ENCODING_B64, ENCODING_RAW, encode_values
from repro.exceptions import SchemaError, SensorSafeError
from repro.net import wire
from repro.net.client import HttpClient
from repro.net.transport import Network
from repro.sensors.channels import channel_names
from repro.sensors.packets import (
    SensorPacket,
    decode_upload,
    encode_captures,
    encode_upload,
    packetize,
)
from repro.server.datastore_service import DataStoreService
from repro.util.geo import LatLon

from tests.conftest import MONDAY, UCLA

_FLOATS = st.floats(allow_nan=False, allow_infinity=False, width=64)
_TEXT = st.sampled_from(["Still", "Café ☕", "歩く", "", "Not Stressed"])
#: ``LatLon(-0.0, 0.0) == LatLon(0.0, 0.0)``, but they are written apart
_PLACES = [None, UCLA, LatLon(-89.5, 179.25), LatLon(0.0, 0.0), LatLon(-0.0, 0.0),
           LatLon(0.0, -0.0)]  # fmt: skip


@st.composite
def streams(draw):
    """What a stream header carries: ``(channel, interval, location, labels)``."""
    return (
        draw(st.sampled_from(channel_names())),
        draw(st.integers(min_value=1, max_value=300_000)),
        draw(st.sampled_from(_PLACES)),
        draw(st.dictionaries(_TEXT, _TEXT, max_size=4)),
    )


@st.composite
def upload_batches(draw):
    """Packets drawn from a few streams in any order: a stream's packets
    apart from each other, equal headers with gaps between them, one
    channel under two label sets."""
    pool = draw(st.lists(streams(), min_size=1, max_size=4))
    batch = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        name, interval, location, context = draw(st.sampled_from(pool))
        batch.append(
            SensorPacket(
                channel_name=name,
                start_ms=draw(st.sampled_from([0, MONDAY, MONDAY + 123_457])),
                interval_ms=interval,
                values=tuple(draw(st.lists(_FLOATS, min_size=1, max_size=70))),
                location=location,
                context=dict(context),
            )
        )
    return batch


def bits(packet):
    return struct.pack(f"<{len(packet.values)}d", *packet.values)


def over_the_wire(frame):
    """What the store's handler is handed: the frame after the transport's bytes."""
    return wire.decode(wire.encode(frame))


def assert_same(decoded, packets):
    assert decoded == packets  # channel, start, interval, values, location
    for got, sent in zip(decoded, packets):
        assert bits(got) == bits(sent)  # == cannot tell -0.0 from 0.0
        assert repr(got.location) == repr(sent.location)  # nor can LatLon's
        assert got.context == sent.context  # excluded from ==
        assert got.values.dtype == np.float64 and got.values.ndim == 1
        assert not got.values.flags.writeable
    # one label dict a capture, which its packets share: none copied per packet
    captures = encode_captures((p.location, p.context) for p in packets)[0]["Captures"]
    assert len({id(p.context) for p in decoded}) == len(captures)


@settings(max_examples=150, deadline=None)
@given(upload_batches())
def test_round_trip_is_bit_for_bit(packets):
    assert_same(decode_upload(over_the_wire(encode_upload(packets))), packets)


@settings(max_examples=150, deadline=None)
@given(upload_batches())
def test_the_frame_is_canonical(packets):
    """One capture per distinct (location, labels) and one stream per
    distinct (channel, interval, capture), as written, first use first,
    each used; the same packets make the same frame."""
    frame = encode_upload(packets)
    used = [row[0] for row in frame["Packets"]]
    assert list(dict.fromkeys(used)) == list(range(len(frame["Streams"])))
    named = [stream[2] for stream in frame["Streams"]]
    assert list(dict.fromkeys(named)) == list(range(len(frame["Captures"])))
    for table in ("Captures", "Streams"):
        written = [wire.encode(row) for row in frame[table]]
        assert len(set(written)) == len(written)
    assert all(type(x) is int for stream in frame["Streams"] for x in stream[1:])
    assert over_the_wire(frame) == over_the_wire(encode_upload(packets))
    assert all(type(x) is int for row in frame["Packets"] for x in row)


def test_round_trip_of_the_awkward_packets():
    packets = [
        SensorPacket("ECG", MONDAY, 4, (-0.0,)),
        SensorPacket("SkinTemp", MONDAY, 1000, (5e-324, -5e-324, 2.2250738585072014e-308)),
        SensorPacket("GpsLat", MONDAY, 300_000, (34.0689,), location=UCLA, context={}),
        SensorPacket(
            "AccelX", MONDAY, 20, (1.7976931348623157e308, 0.1 + 0.2), context={"Activity": "歩く ☕"}
        ),
        SensorPacket("ECG", MONDAY + 4, 4, (1, 2, 3)),  # ints, as a test might build them
    ]
    frame = encode_upload(packets)
    assert [row[2] for row in frame["Packets"]] == [1, 3, 1, 2, 3]
    assert [row[0] for row in frame["Packets"]] == [0, 1, 2, 3, 0]  # the ECG stream, twice
    assert [stream[2] for stream in frame["Streams"]] == [0, 0, 1, 2]
    assert frame["Captures"] == [[None, {}], [UCLA.to_json(), {}], [None, {"Activity": "歩く ☕"}]]
    assert frame["Values"]["Samples"] == 10 and frame["Values"]["Channels"] == 1
    decoded = decode_upload(over_the_wire(frame))
    assert_same(decoded, packets)
    assert np.signbit(decoded[0].values[0])
    assert decoded[2].location == UCLA and decoded[0].location is None


def test_interleaved_streams_come_back_in_row_order():
    still, walk = {"Activity": "Still"}, {"Activity": "Walk"}
    packets = [
        SensorPacket("ECG", MONDAY, 4, (1.0, 2.0), UCLA, still),
        SensorPacket("AccelX", MONDAY, 20, (3.0,), UCLA, still),
        SensorPacket("ECG", MONDAY + 8, 4, (4.0,), UCLA, still),  # apart from its first
        SensorPacket("ECG", MONDAY + 12, 4, (5.0,), UCLA, walk),  # one channel, two label sets
        SensorPacket("ECG", MONDAY + 400, 4, (6.0,), UCLA, still),  # equal header, after a gap
        SensorPacket("ECG", MONDAY + 404, 4, (7.0,), LatLon(-0.0, 0.0), still),
        SensorPacket("ECG", MONDAY + 408, 4, (8.0,), LatLon(0.0, 0.0), still),
    ]
    frame = encode_upload(packets)
    assert [row[0] for row in frame["Packets"]] == [0, 1, 0, 2, 0, 3, 4]
    assert frame["Packets"][4] == [0, MONDAY + 400, 1]
    assert frame["Streams"] == [["ECG", 4, 0], ["AccelX", 20, 0], ["ECG", 4, 1], ["ECG", 4, 2],
                                ["ECG", 4, 3]]  # fmt: skip
    assert [struct.pack("<2d", *c[0]) for c in frame["Captures"][2:]] == [
        struct.pack("<2d", -0.0, 0.0), struct.pack("<2d", 0.0, 0.0),
    ]  # fmt: skip
    assert_same(decode_upload(over_the_wire(frame)), packets)


def test_an_empty_upload_is_a_frame_too():
    assert decode_upload(over_the_wire(encode_upload([]))) == []


def test_the_frame_holds_each_sample_once_and_no_decimal():
    packets = packetize("ECG", MONDAY, 4, [0.1 * i for i in range(640)], location=UCLA)
    frame = encode_upload(packets)
    assert set(frame) == {"Captures", "Streams", "Packets", "Values"}
    assert frame["Captures"] == [[UCLA.to_json(), {}]]
    assert frame["Streams"] == [["ECG", 4, 0]]
    assert frame["Packets"] == [[0, MONDAY + 256 * i, 64] for i in range(10)]
    # 8 bytes a sample and nothing on top; base64 spent 10.67, a decimal list ~19
    assert type(frame["Values"]["Blob"]) is bytes
    assert wire.size(frame["Values"]) == 640 * 8 + len(
        '{"Blob":{"$bytes":5120},"Channels":1,"Encoding":"le-f64","Samples":640}\n'
    )


def test_the_channels_of_an_upload_share_one_capture():
    """A phone samples every channel at one place under one label set: the
    pair is written once a frame, not once a channel."""
    still = {"Activity": "Still", "Stress": "NotStressed"}
    packets = [
        packet
        for name in ("ECG", "Respiration", "AccelX", "AccelY", "AccelZ")
        for packet in packetize(name, MONDAY, 20, [1.0] * 8, packet_samples=4, location=UCLA,
                                context=still)  # fmt: skip
    ]
    frame = encode_upload(packets)
    assert frame["Captures"] == [[UCLA.to_json(), still]]
    assert [stream[2] for stream in frame["Streams"]] == [0] * 5
    assert_same(decode_upload(over_the_wire(frame)), packets)


def test_a_capture_key_is_worked_out_once_per_distinct_pair_of_objects():
    """The stamped packets of one window share a label dict, so the key (a
    packed location and a frozen label set) is built per distinct pair of
    objects; pairs equal by value still share one row."""
    shared = {"Activity": "Still"}
    taken = [(UCLA, shared)] * 50 + [(UCLA, dict(shared))] * 3 + [(None, shared)] * 4
    with mock.patch("repro.sensors.packets.struct", wraps=struct) as packed:
        table, index = encode_captures(taken)
    assert packed.pack.call_count == 2  # (UCLA, shared) and (UCLA, its copy)
    assert table["Captures"] == [[UCLA.to_json(), shared], [None, shared]]
    assert index == [0] * 53 + [1] * 4
    # Pairs built on the fly are freed as the next is drawn; ids are not keys.
    fresh = encode_captures((LatLon(34.0, -118.0 - k % 2), {"Activity": str(k % 3)})
                            for k in range(12))  # fmt: skip
    assert fresh[1] == [0, 1, 2, 3, 4, 5] * 2


# ---------------------------------------------------------------------------
# Non-finite samples: refused on purpose, on both sides
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_encode_refuses_a_non_finite_sample(bad):
    packets = [
        SensorPacket("ECG", MONDAY, 4, (1.0, 2.0)),
        SensorPacket("ECG", MONDAY + 8, 4, (bad,)),
    ]
    with pytest.raises(SchemaError, match="finite"):
        encode_upload(packets)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_decode_refuses_a_hand_built_frame_that_holds_one(bad):
    frame = encode_upload([SensorPacket("ECG", MONDAY, 4, (1.0, 2.0, 3.0))])
    frame["Values"] = encode_values(np.array([[1.0], [bad], [3.0]]), ENCODING_RAW)
    with pytest.raises(SchemaError, match="finite"):
        decode_upload(over_the_wire(frame))


# ---------------------------------------------------------------------------
# Adversarial frames
# ---------------------------------------------------------------------------


def _frame():
    """Three well-formed packets of one stream: 4 + 4 + 2 samples."""
    return encode_upload(
        packetize("ECG", MONDAY, 250, list(range(10)), packet_samples=4, location=UCLA)
    )


def _parent_header(packet, values):
    """A packet's header in the frames older commits sent, one per packet:
    ``values`` is its sample list (a61bce2) or its sample count (8fa982b)."""
    return {
        "Channel": packet.channel_name,
        "StartTime": packet.start_ms,
        "SamplingInterval": packet.interval_ms,
        "Values": values,
        "Location": packet.location.to_json() if packet.location else None,
        "Context": dict(packet.context),
    }


def _parent_body(packets):
    """The packet list a61bce2 uploaded: every sample a JSON number."""
    return [_parent_header(p, list(p.values)) for p in packets]


def _parent_stream(packet):
    """A packet's stream as ebc00ff wrote it: one object, its capture inside."""
    header = _parent_header(packet, None)
    return {k: header[k] for k in ("Channel", "SamplingInterval", "Location", "Context")}


#: a header member -> (its table: 0 the packet's row, 1 its stream, 2 its
#: capture; its cell there)
_CELL = {
    "StartTime": (0, 1), "Values": (0, 2), "Channel": (1, 0), "SamplingInterval": (1, 1),
    "Location": (2, 0), "Context": (2, 1),
}  # fmt: skip


def _own(frame, index, members):
    """Packet ``index``'s row, stream and capture, the last two copies only
    it uses where ``members`` edit them: the packets ahead of it keep a
    well-formed stream and capture."""
    row, tables = frame["Packets"][index], {_CELL[m][0] for m in members}
    if tables & {1, 2}:
        frame["Streams"].append(list(frame["Streams"][row[0]]))
        row[0] = len(frame["Streams"]) - 1
    stream = frame["Streams"][row[0]]
    if 2 in tables:
        frame["Captures"].append(list(frame["Captures"][stream[2]]))
        stream[2] = len(frame["Captures"]) - 1
    return row, stream, frame["Captures"][stream[2]]


def _with_header(index, **members):
    """The frame with packet ``index``'s header members set: ``StartTime``
    and ``Values`` (the count) in its row, ``Channel`` and
    ``SamplingInterval`` in its own stream, ``Location`` and ``Context`` in
    its own capture."""
    frame = _frame()
    tables = _own(frame, index, members)
    for member, value in members.items():
        table, cell = _CELL[member]
        tables[table][cell] = value
    return frame


def _without(index, member):
    frame = _frame()
    table, cell = _CELL[member]
    del _own(frame, index, [member])[table][cell]
    return frame


def _with_stream(index, stream):
    """The frame with packet ``index``'s stream row replaced by ``stream``."""
    frame = _frame()
    frame["Streams"].append(stream)
    frame["Packets"][index][0] = len(frame["Streams"]) - 1
    return frame


def _with_capture(index, capture):
    """The frame with packet ``index``'s capture replaced by ``capture``."""
    frame = _frame()
    frame["Captures"].append(capture)
    _own(frame, index, ["Channel"])[1][2] = len(frame["Captures"]) - 1
    return frame


def _with_row(index, row):
    frame = _frame()
    frame["Packets"][index] = row
    return frame


def _with_vector(n, encoding=ENCODING_RAW, channels=1):
    return {**_frame(), "Values": encode_values(np.zeros((n // channels, channels)), encoding)}


def _with_blob(**members):
    return {**_frame(), "Values": {**_frame()["Values"], **members}}


_THIRD = MONDAY + 2000  # the third packet's start
_PARENT_PACKETS = packetize("ECG", MONDAY, 250, list(range(10)), packet_samples=4, location=UCLA)

#: name -> (frame, the typed error).  The malformed member sits in the
#: *last* packet wherever it can — in its row, or in a stream only it
#: uses — behind two well-formed packets.
MALFORMED = {
    "frame is null": (None, SchemaError),
    "frame is a list": (_frame()["Packets"], SchemaError),
    "frame is the parent's packet list": (
        _parent_body(packetize("ECG", MONDAY, 250, [1.0])),
        SchemaError,
    ),
    "the parent's per-packet-header frame": (
        {
            "Packets": [_parent_header(p, len(p.values)) for p in _PARENT_PACKETS],
            "Values": _frame()["Values"],
        },
        SchemaError,
    ),
    "the parent's stream-object frame": (
        {
            "Streams": [_parent_stream(_PARENT_PACKETS[0])],
            "Packets": _frame()["Packets"],
            "Values": _frame()["Values"],
        },
        SchemaError,
    ),
    "no Captures": ({k: v for k, v in _frame().items() if k != "Captures"}, SchemaError),
    "no Streams": ({k: v for k, v in _frame().items() if k != "Streams"}, SchemaError),
    "no Packets": ({k: v for k, v in _frame().items() if k != "Packets"}, SchemaError),
    "no Values": ({k: v for k, v in _frame().items() if k != "Values"}, SchemaError),
    "Captures is an object": ({**_frame(), "Captures": {}}, SchemaError),
    "Streams is an object": ({**_frame(), "Streams": {}}, SchemaError),
    "Packets is an object": ({**_frame(), "Packets": {}}, SchemaError),
    "Values is a list": ({**_frame(), "Values": [1.0, 2.0]}, SchemaError),
    "header is a number": ({**_frame(), "Packets": _frame()["Packets"][:2] + [2]}, SchemaError),
    "header is null": ({**_frame(), "Packets": _frame()["Packets"][:2] + [None]}, SchemaError),
    "header is a list": ({**_frame(), "Packets": _frame()["Packets"][:2] + [[2]]}, SchemaError),
    # a row is exactly [stream, start, count]
    "header without a count": (_without(2, "Values"), SchemaError),
    "header without StartTime": (_without(2, "StartTime"), SchemaError),
    "row of length 4": (_with_row(2, [0, _THIRD, 2, 2]), SchemaError),
    "stream index out of range": (_with_row(2, [1, _THIRD, 2]), SchemaError),
    "stream index is negative": (_with_row(2, [-1, _THIRD, 2]), SchemaError),
    "stream index is a boolean": (_with_row(2, [False, _THIRD, 2]), SchemaError),
    "stream index is a float": (_with_row(2, [0.0, _THIRD, 2]), SchemaError),
    "count is zero": (_with_header(1, Values=0), SchemaError),
    "count is negative": (_with_header(2, Values=-2), SchemaError),
    "count is a float": (_with_header(2, Values=2.0), SchemaError),
    "count is text": (_with_header(2, Values="2"), SchemaError),
    "count is a boolean": (_with_header(2, Values=True), SchemaError),
    "count is null": (_with_header(2, Values=None), SchemaError),
    "count is the parent's sample list": (_with_header(2, Values=[8.0, 9.0]), SchemaError),
    "last header overdraws": (_with_header(2, Values=3), SchemaError),
    "last header underdraws": (_with_header(2, Values=1), SchemaError),
    "vector one short": (_with_vector(9), SchemaError),
    "vector one long": (_with_vector(11), SchemaError),
    "vector empty": (_with_vector(0), SchemaError),
    "one header too many": ({**_frame(), "Packets": _frame()["Packets"] * 2}, SchemaError),
    "one header too few": ({**_frame(), "Packets": _frame()["Packets"][:2]}, SchemaError),
    "blob is not base64": (_with_blob(Blob="@@@"), SchemaError),
    "blob shorter than declared": (_with_blob(Samples=11), SchemaError),
    "blob of no known encoding": (_with_blob(Encoding="hex"), SchemaError),
    # the codec's decimal-list encoding is not a second wire form
    "plain blob": (_with_blob(Encoding="plain", Blob=[[0.0]] * 10), SchemaError),
    "plain blob of text": (_with_blob(Encoding="plain", Samples=1, Blob=["x"]), SchemaError),
    "two-channel blob": (_with_vector(10, channels=2), SchemaError),
    # nor is base64, an older frame's and still the stored form
    "b64le-f64 blob (the parent's frame)": (_with_vector(10, ENCODING_B64), SchemaError),
    "Blob is a str": (
        _with_blob(Blob=base64.b64encode(_frame()["Values"]["Blob"]).decode()),
        SchemaError,
    ),
    "Blob is a bytearray": (_with_blob(Blob=bytearray(_frame()["Values"]["Blob"])), SchemaError),
    "Blob is a list of floats": (_with_blob(Blob=[float(i) for i in range(10)]), SchemaError),
    "blob one byte short": (_with_blob(Blob=_frame()["Values"]["Blob"][:-1]), SchemaError),
    "blob one byte long": (_with_blob(Blob=_frame()["Values"]["Blob"] + b"\0"), SchemaError),
    "Channels is text": (_with_blob(Channels="1"), SchemaError),
    # streams: every one used, every member present, nothing coerced
    "unreferenced stream": ({**_frame(), "Streams": _frame()["Streams"] * 2}, SchemaError),
    "stream is a number": ({**_frame(), "Streams": [5]}, SchemaError),
    "stream is the parent's object": (_with_stream(2, _parent_stream(_PARENT_PACKETS[2])),
                                      SchemaError),  # fmt: skip
    "stream of four cells": (_with_stream(2, ["ECG", 250, 0, 0]), SchemaError),
    "stream names no capture": (_with_stream(2, ["ECG", 250]), SchemaError),
    "stream capture out of range": (_with_stream(2, ["ECG", 250, 1]), SchemaError),
    "stream capture is negative": (_with_stream(2, ["ECG", 250, -1]), SchemaError),
    "stream capture is a boolean": (_with_stream(2, ["ECG", 250, False]), SchemaError),
    "stream capture is a float": (_with_stream(2, ["ECG", 250, 0.0]), SchemaError),
    "stream capture is null": (_with_stream(2, ["ECG", 250, None]), SchemaError),
    # captures: every one used, exactly [Location, Context], nothing coerced
    "unreferenced capture": ({**_frame(), "Captures": _frame()["Captures"] * 2}, SchemaError),
    "capture is a number": (_with_capture(2, 5), SchemaError),
    "capture is null": (_with_capture(2, None), SchemaError),
    "capture is an object": (
        _with_capture(2, {"Location": UCLA.to_json(), "Context": {}}),
        SchemaError,
    ),
    "capture of three cells": (_with_capture(2, [UCLA.to_json(), {}, {}]), SchemaError),
    "capture is a bare location": (_with_capture(2, UCLA.to_json()), SchemaError),
    "header without Channel": (_without(2, "Channel"), SchemaError),
    "header without SamplingInterval": (_without(2, "SamplingInterval"), SchemaError),
    "stream without Location": (_without(2, "Location"), SchemaError),
    "stream without Context": (_without(2, "Context"), SchemaError),
    "Channel is a number": (_with_header(2, Channel=5), SchemaError),
    "Channel is a list": (_with_header(2, Channel=["ECG"]), SchemaError),
    "StartTime is text": (_with_header(2, StartTime="noon"), SchemaError),
    "SamplingInterval is null": (_with_header(2, SamplingInterval=None), SchemaError),
    "Context is a list": (_with_header(2, Context=["Still"]), SchemaError),
    # each of these was accepted at 8fa982b, re-timed or coerced by int() and dict()
    "StartTime is a boolean": (_with_header(2, StartTime=True), SchemaError),
    "StartTime is a float": (_with_header(2, StartTime=_THIRD + 0.7), SchemaError),
    "StartTime is numeric text": (_with_header(2, StartTime=str(_THIRD)), SchemaError),
    "SamplingInterval is a float": (_with_header(2, SamplingInterval=250.9), SchemaError),
    "SamplingInterval is numeric text": (_with_header(2, SamplingInterval="250"), SchemaError),
    "SamplingInterval is a boolean": (_with_header(2, SamplingInterval=True), SchemaError),
    "Context is a list of pairs": (
        _with_header(2, Context=[["Activity", "Still"]]),
        SchemaError,
    ),
    "Context label is a number": (_with_header(2, Context={"Activity": 5}), SchemaError),
    "location has three numbers": (_with_header(2, Location=[34.0, -118.0, 0.0]), SchemaError),
    "location is an empty list": (_with_header(2, Location=[]), SchemaError),
    "location is two booleans": (_with_header(2, Location=[True, False]), SchemaError),
    # the constructor's own checks, still run for every packet
    "unknown channel": (_with_header(2, Channel="Sonar"), SensorSafeError),
    "zero interval": (_with_header(2, SamplingInterval=0), SensorSafeError),
    "location off the globe": (_with_header(2, Location=[91.0, 0.0]), SensorSafeError),
    "location is text": (_with_header(2, Location="UCLA"), SensorSafeError),
}


def test_the_well_formed_frame_parses():
    assert [len(p.values) for p in decode_upload(over_the_wire(_frame()))] == [4, 4, 2]


def test_each_edit_is_the_only_defect_of_its_frame():
    """The helpers put the defect where the name says and nowhere else:
    undoing the third packet's edit gives back a frame that parses."""
    frame = _with_header(2, Channel="Sonar", StartTime=_THIRD + 1)
    assert frame["Packets"] == [[0, MONDAY, 4], [0, MONDAY + 1000, 4], [1, _THIRD + 1, 2]]
    assert frame["Streams"] == [["ECG", 250, 0], ["Sonar", 250, 0]]
    assert frame["Captures"] == [[UCLA.to_json(), {}]]
    assert _with_header(2, StartTime=_THIRD) == _frame()
    frame = _with_header(2, Context={"Activity": "Still"}, SamplingInterval=250)
    assert frame["Streams"] == [["ECG", 250, 0], ["ECG", 250, 1]]
    assert frame["Captures"] == [[UCLA.to_json(), {}], [UCLA.to_json(), {"Activity": "Still"}]]
    assert decode_upload(frame)[2].context == {"Activity": "Still"}
    assert _without(2, "Values")["Packets"][2] == [0, _THIRD]
    assert _without(2, "Location")["Captures"] == [[UCLA.to_json(), {}], [{}]]
    assert _without(2, "Channel")["Streams"] == [["ECG", 250, 0], [250, 0]]
    assert decode_upload(_with_stream(2, ["ECG", 250, 0]))[2] == decode_upload(_frame())[2]
    assert len(decode_upload(_with_capture(2, [UCLA.to_json(), {}]))) == 3


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_frame_is_refused_whole(name):
    """Every refusal is the typed error, raised before a list exists to
    return — including when the first packets are well formed."""
    frame, error = MALFORMED[name]
    with pytest.raises(error):
        decode_upload(frame)


# ---------------------------------------------------------------------------
# Through the handler: a refused upload leaves nothing behind
# ---------------------------------------------------------------------------


@pytest.fixture()
def store(tmp_path):
    network = Network()
    service = DataStoreService("store", network, directory=str(tmp_path), durable=True)
    alice = HttpClient(network, "alice", service.register_contributor("alice"))
    return network, service, alice


def state_of(network, service):
    return (
        dict(service.store.optimizer._buffers),
        network.obs.metrics.gauge_value("store_segments", store="store"),
        network.obs.metrics.gauge_value("store_samples", store="store"),
        service.durability.wal.last_lsn,
        len(service.store._ingested_ids),
    )


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_a_refused_request_leaves_the_store_as_it_was(store, name):
    network, service, alice = store
    before = state_of(network, service)
    body = {"Contributor": "alice", "Upload": MALFORMED[name][0], "Flush": True}
    if name == "Blob is a bytearray":
        # not even sendable: the wire carries JSON and ``bytes``, nothing else
        with pytest.raises(SchemaError, match="bytearray"):
            alice.post("https://store/api/upload_packets", body, raw=True)
        assert network.metrics_of("store").bytes_in == 0
    else:
        response = alice.post("https://store/api/upload_packets", body, raw=True)
        assert response.status == 400, response.body
    assert state_of(network, service) == before
    assert before[0] == {} and before[1] == 0
    assert alice.post("https://store/api/flush", {"Contributor": "alice"}) == {"Finalized": 0}


def test_an_unknown_channel_in_the_third_packet_costs_the_first_two_nothing(store):
    """At a61bce2 the same request answered 400 *after* its first two
    packets had entered the optimizer, and whoever flushed next — here
    alice herself; on a shared store, anyone — made them durable."""
    network, service, alice = store
    response = alice.post(
        "https://store/api/upload_packets",
        {"Contributor": "alice", "Upload": _with_header(2, Channel="Sonar")},
        raw=True,
    )
    assert response.status == 400 and "Sonar" in response.body["Error"]
    assert service.store.optimizer._buffers == {}
    assert network.obs.metrics.gauge_value("store_segments", store="store") == 0
    assert alice.post("https://store/api/flush", {"Contributor": "alice"}) == {"Finalized": 0}
    assert service.store.stats.n_segments == 0
    # the same packets with the channel right are accepted whole
    reply = alice.post(
        "https://store/api/upload_packets",
        {"Contributor": "alice", "Upload": _frame(), "Flush": True},
    )
    assert reply == {"Accepted": 3, "Finalized": 1, "Flushed": True}
    assert network.obs.metrics.gauge_value("store_samples", store="store") == 10


def test_the_store_does_not_read_a_packets_list(store):
    """No second wire form: the parent's body is a 400, not a fallback."""
    _, service, alice = store
    packets = packetize("ECG", MONDAY, 250, list(range(8)), location=UCLA)
    response = alice.post(
        "https://store/api/upload_packets",
        {"Contributor": "alice", "Packets": _parent_body(packets)},
        raw=True,
    )
    assert response.status == 400
    assert service.store.optimizer._buffers == {}


def test_the_request_span_counts_what_arrived_and_carries_none_of_it(store):
    network, _, alice = store
    alice.post("https://store/api/upload_packets", {"Contributor": "alice", "Upload": _frame()})
    (span,) = [
        s for s in network.obs.tracer.finished
        if s.name == "net.request" and s.attributes.get("route") == "/api/upload_packets"
    ]
    assert span.attributes["packets"] == 3 and span.attributes["readings"] == 10
    exported = span.to_json()["Attributes"]
    assert exported["packets"] == 3 and exported["readings"] == 10  # survive redaction: counts


# ---------------------------------------------------------------------------
# Packets are views of the frame; what is stored is not
# ---------------------------------------------------------------------------


def test_decoded_packets_are_read_only_views_of_the_frame_s_bytes():
    frame = over_the_wire(_frame())
    blob = np.frombuffer(frame["Values"]["Blob"], dtype="<f8")
    packets = decode_upload(frame)
    assert [p.values.tolist() for p in packets] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
    for pkt in packets:
        assert np.shares_memory(pkt.values, blob) and not pkt.values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            pkt.values[0] = 1.0


@pytest.mark.parametrize("merging", [True, False], ids=["merging", "per-packet"])
def test_a_stored_segment_never_pins_the_frame_it_arrived_in(tmp_path, monkeypatch, merging):
    """Three uploads: a run that merges (4 + 4 + 2), then two one-packet
    runs, one closed by a gap and one by the flush.  Each stored segment
    owns its samples, so no request body outlives its request."""
    from repro.datastore.optimizer import MergePolicy
    from repro.server import datastore_service

    blobs, seen = [], []

    def spy(frame):
        blobs.append(np.frombuffer(frame["Values"]["Blob"], dtype="<f8"))
        seen.extend(packets := decode_upload(frame))
        return packets

    monkeypatch.setattr(datastore_service, "decode_upload", spy)
    network = Network()
    service = DataStoreService(
        "store", network, directory=str(tmp_path), durable=True,
        merge_policy=MergePolicy(enabled=merging),
    )  # fmt: skip
    alice = HttpClient(network, "alice", service.register_contributor("alice"))
    lone = [SensorPacket("ECG", MONDAY + hour * 3_600_000, 250, (1.0, 2.0, 3.0)) for hour in (1, 2)]
    for upload, flush in ((_frame(), False), (encode_upload(lone[:1]), False),
                          (encode_upload(lone[1:]), True)):  # fmt: skip
        alice.post(
            "https://store/api/upload_packets",
            {"Contributor": "alice", "Upload": upload, "Flush": flush},
        )
    stored = service.store.segments_of("alice")
    assert [s.n_samples for s in stored] == ([10, 3, 3] if merging else [4, 4, 2, 3, 3])
    assert len(blobs) == 3 and len(seen) == 5
    # every packet the handler ingested was a view of its own request's blob
    assert sum(np.shares_memory(p.values, b) for p in seen for b in blobs) == 5
    for segment in stored:
        assert not any(np.shares_memory(segment.values, blob) for blob in blobs)
        assert not any(np.shares_memory(segment.values, p.values) for p in seen)
        assert segment.values.base is None and not segment.values.flags.writeable
    assert np.concatenate([s.values for s in stored]).ravel().tolist() == [
        *range(10), 1.0, 2.0, 3.0, 1.0, 2.0, 3.0,
    ]  # fmt: skip
