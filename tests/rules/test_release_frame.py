"""The release frame: ``encode_release`` / ``decode_release``.

A consumer release travels as ``{"Pieces": [...], "Values": <one blob>}``;
these tests hold the pair to being lossless over every kind of piece the
engine can emit, to handing the consumer read-only views of the frame's
own bytes, and to refusing — whole, never in part — a frame whose blob is
anything but one ``le-f64`` ``bytes`` vector or whose declared shapes do
not consume it exactly.
"""

import base64

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datastore.codec import (
    ENCODING_B64,
    ENCODING_RAW,
    decode_values,
    encode_values,
)
from repro.datastore.wavesegment import TIME_CHANNEL, WaveSegment
from repro.exceptions import SchemaError, ValidationError
from repro.net import wire
from repro.rules.engine import ReleasedSegment, decode_release, encode_release
from repro.util.jsonutil import canonical_dumps
from repro.util.timeutil import Interval

from tests.conftest import MONDAY

_FLOATS = st.floats(allow_nan=False, width=64)


def _waveform(draw, channels, interval_ms):
    rows = draw(st.integers(min_value=1, max_value=6))
    values = np.array(
        draw(st.lists(_FLOATS, min_size=rows * len(channels), max_size=rows * len(channels)))
    ).reshape(rows, len(channels))
    start_ms = draw(st.sampled_from([0, MONDAY, MONDAY + 123]))
    if interval_ms is None:  # embedded, strictly increasing Time column
        values[:, channels.index(TIME_CHANNEL)] = start_ms + 7 * np.arange(rows) ** 2
    return WaveSegment("alice", channels, start_ms, interval_ms, values)


@st.composite
def pieces(draw):
    """One released piece: label-only, or a waveform of any shape."""
    labels = draw(st.sampled_from([{}, {"Activity": "Still"}, {"Activity": "Café ☕"}]))
    kind = draw(st.sampled_from(["labels", "single", "multi", "nonuniform"]))
    if kind == "labels":
        ts = draw(st.sampled_from([None, 0, MONDAY]))
        return ReleasedSegment(
            "alice", Interval(ts or 0, (ts or 0) + 1), timestamp=ts,
            context_labels=labels or {"Stress": "Stressed"},
        )
    channels, interval_ms = {
        "single": (("ECG",), 250),
        "multi": (("AccelX", "AccelY", "AccelZ"), 20),
        "nonuniform": ((TIME_CHANNEL, "ECG", "Respiration"), None),
    }[kind]
    segment = _waveform(draw, channels, interval_ms)
    return ReleasedSegment(
        "alice", segment.interval, segment=segment, timestamp=segment.start_ms,
        context_labels=labels, withheld=draw(st.sampled_from([{}, {"GpsLat": "closure"}])),
    )


def _wire(released) -> list:
    return [piece.to_json() for piece in released]


@settings(max_examples=200, deadline=None)
@given(st.lists(pieces(), max_size=6))
def test_round_trip_is_lossless_and_canonical(released):
    frame = encode_release(released)
    decoded = decode_release(frame)
    assert _wire(decoded) == _wire(released)
    assert [p.segment and p.segment.segment_id for p in decoded] == [
        p.segment and p.segment.segment_id for p in released
    ]
    sent = wire.encode(frame)
    assert wire.encode(encode_release(decoded)) == sent
    # The same after a trip through bytes, as over a real wire.
    assert _wire(decode_release(wire.decode(sent))) == _wire(released)
    # One blob holds exactly the samples of every waveform, nothing else.
    assert frame["Values"]["Samples"] == sum(
        p.segment.values.size for p in released if p.segment is not None
    )
    assert "Blob" not in canonical_dumps(frame["Pieces"])


def test_empty_release_is_an_empty_frame():
    frame = encode_release([])
    assert frame == {"Pieces": [], "Values": encode_values(np.empty((0, 1)), ENCODING_RAW)}
    assert frame["Values"]["Samples"] == 0 and frame["Values"]["Blob"] == b""
    assert decode_release(frame) == []


def test_label_only_pieces_consume_nothing():
    labels = ReleasedSegment("alice", Interval(5, 6), timestamp=5, context_labels={"Stress": "Stressed"})
    wave = ReleasedSegment(
        "alice", Interval(0, 1000), timestamp=0,
        segment=WaveSegment("alice", ("ECG",), 0, 1000, np.array([[1.5]])),  # 1 sample
    )
    frame = encode_release([labels, wave, labels])
    assert [p["Segment"] and p["Segment"]["Values"] for p in frame["Pieces"]] == [
        None, {"Samples": 1, "Channels": 1}, None,
    ]
    assert decode_values(frame["Values"]).tolist() == [[1.5]]
    assert _wire(decode_release(frame)) == _wire([labels, wave, labels])


def test_multi_channel_and_non_uniform_pieces_ravel_row_major():
    accel = WaveSegment("alice", ("AccelX", "AccelY"), 0, 20, np.array([[1.0, 2.0], [3.0, 4.0]]))
    timed = WaveSegment(
        "alice", (TIME_CHANNEL, "ECG"), 100, None, np.array([[100.0, 9.0], [107.0, 8.0]])
    )
    released = [ReleasedSegment("alice", s.interval, segment=s, timestamp=s.start_ms) for s in (accel, timed)]
    frame = encode_release(released)
    assert decode_values(frame["Values"]).ravel().tolist() == [1, 2, 3, 4, 100, 9, 107, 8]
    first, second = decode_release(frame)
    assert first.segment.values.tolist() == accel.values.tolist()
    assert second.segment.values.tolist() == timed.values.tolist()
    assert not second.segment.is_uniform and second.interval == timed.interval


def test_column_selected_arrays_encode_in_logical_order():
    """A projection is a strided copy; the frame must not depend on memory layout."""
    wide = np.arange(12.0).reshape(4, 3)
    segment = WaveSegment("alice", ("AccelX", "AccelZ"), 0, 20, wide[:, [0, 2]])
    (decoded,) = decode_release(
        encode_release([ReleasedSegment("alice", segment.interval, segment=segment)])
    )
    assert decoded.segment.values.tolist() == [[0, 2], [3, 5], [6, 8], [9, 11]]


def test_decoded_pieces_are_read_only_views_of_one_array():
    segments = [
        WaveSegment("alice", ("ECG",), 1000 * i, 250, np.full((3, 1), float(i))) for i in range(4)
    ]
    decoded = decode_release(
        encode_release(ReleasedSegment("alice", s.interval, segment=s) for s in segments)
    )
    bases = {id(p.segment.values.base) for p in decoded}
    assert len(bases) == 1 and decoded[0].segment.values.base is not None
    assert decoded[0].segment.values.base.size == 12
    for piece in decoded:
        assert not piece.segment.values.flags.writeable
        with pytest.raises(ValueError):
            piece.segment.values[0, 0] = 1.0


def test_decoded_values_are_the_frame_s_own_bytes():
    """Nothing is decoded, so nothing is copied: every piece reads the
    ``bytes`` the response carried, and they cannot be written through."""
    frame = _frame()
    blob = frame["Values"]["Blob"]
    assert type(blob) is bytes and len(blob) == 4 * 8
    for piece in decode_release(wire.decode(wire.encode(frame))):
        assert piece.segment is None or not piece.segment.values.flags.writeable
    for piece in decode_release(frame):
        if piece.segment is None:
            continue
        owner = piece.segment.values
        while isinstance(owner, np.ndarray):
            assert not owner.flags.writeable and not owner.flags.owndata
            owner = owner.base
        assert owner is blob


def _frame():
    """Two 2x1 waveforms around a label-only piece: four values."""
    wave = WaveSegment("alice", ("ECG",), 0, 250, np.array([[1.0], [2.0]]))
    return encode_release(
        [
            ReleasedSegment("alice", wave.interval, segment=wave),
            ReleasedSegment("alice", Interval(0, 1), context_labels={"Stress": "Stressed"}),
            ReleasedSegment("alice", wave.interval, segment=wave),
        ]
    )


def _with_shape(index, **shape):
    frame = _frame()
    frame["Pieces"][index]["Segment"]["Values"].update(shape)
    return frame


def _with_vector(n, encoding=ENCODING_RAW, channels=1):
    return {**_frame(), "Values": encode_values(np.zeros((n // channels, channels)), encoding)}


def _with_blob(**members):
    return {**_frame(), "Values": {**_frame()["Values"], **members}}


MALFORMED = {
    "frame is a list": _frame()["Pieces"],
    "frame is null": None,
    "no Pieces": {"Values": _frame()["Values"]},
    "no Values": {"Pieces": _frame()["Pieces"]},
    "Pieces is an object": {**_frame(), "Pieces": {}},
    "trailing non-object piece": {**_frame(), "Pieces": _frame()["Pieces"] + ["piece"]},
    "null piece": {**_frame(), "Pieces": [None] + _frame()["Pieces"]},
    "Segment is a string": {**_frame(), "Pieces": [{"Segment": "ECG"}]},
    "negative Samples": _with_shape(2, Samples=-2),
    "zero Channels": _with_shape(2, Channels=0),
    "negative Channels": _with_shape(0, Channels=-1),
    "Samples is text": _with_shape(0, Samples="two"),
    "shape without Channels": {
        **_frame(),
        "Pieces": [{"Segment": {"Values": {"Samples": 4}}}],
    },
    "shape is a number": {**_frame(), "Pieces": [{"Segment": {"Values": 4}}]},
    "vector one short": _with_vector(3),
    "vector one long": _with_vector(5),
    "vector empty": _with_vector(0),
    "last piece overdraws": _with_shape(2, Samples=3),
    "last piece underdraws": _with_shape(2, Samples=1),
    "blob is not base64": _with_blob(Blob="@@@"),
    "blob shorter than declared": _with_blob(Samples=5),
    # one wire form: the codec's stored encodings are refused here exactly
    # as the upload frame refuses them, whatever they hold
    "plain blob": _with_blob(Encoding="plain", Blob=[[0.0]] * 4),
    "b64le-f64 blob (the parent's frame)": _with_vector(4, ENCODING_B64),
    "two-channel blob": _with_vector(4, channels=2),
    "Blob is a str": _with_blob(Blob=base64.b64encode(_frame()["Values"]["Blob"]).decode()),
    "Blob is a bytearray": _with_blob(Blob=bytearray(_frame()["Values"]["Blob"])),
    "Blob is a list of floats": _with_blob(Blob=[1.0, 2.0, 1.0, 2.0]),
    "blob one byte short": _with_blob(Blob=_frame()["Values"]["Blob"][:-1]),
    "blob one byte long": _with_blob(Blob=_frame()["Values"]["Blob"] + b"\0"),
    "blob of no known encoding": _with_blob(Encoding="hex"),
    "Channels is text": _with_blob(Channels="1"),
}


def test_the_well_formed_frame_parses():
    assert len(decode_release(_frame())) == 3


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_frame_is_refused_whole(name):
    """Every refusal is a SchemaError raised before a list exists to return,
    including when the first pieces are well formed."""
    with pytest.raises(SchemaError):
        decode_release(MALFORMED[name])


def test_shape_that_fits_the_vector_but_not_the_format_is_still_refused():
    """The per-piece constructor checks stay on: 4 values declared as 2x2
    against a one-channel format fit the vector and fail the segment."""
    frame = _frame()
    frame["Pieces"] = [frame["Pieces"][0]]
    frame["Pieces"][0]["Segment"]["Values"] = {"Samples": 2, "Channels": 2}
    with pytest.raises(ValidationError):
        decode_release(frame)
