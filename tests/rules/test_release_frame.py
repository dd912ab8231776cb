"""The release frame: ``encode_release`` / ``decode_release``.

A consumer release travels as ``{"Headers": [[Contributor, TimeLevel,
Location, LocationLevel, ContextLabels, Withheld, Format, SamplingInterval],
...], "Pieces": [[header, Timestamp] or [header, Timestamp, Offset,
Samples], ...], "Values": <one blob>}``: what pieces share is a header row
written once, a piece is one row of integers — a waveform's start an offset
from its timestamp — and every waveform's samples ride one blob.  A
waveform's id does not ride at all: the consumer derives it from the
header and row, as the store derived it.
These tests hold the pair to being lossless over every kind of piece the
engine can emit, to writing each header once and checking it once, to
handing the consumer read-only views of the frame's own bytes, and to
refusing — whole, never in part — a frame whose blob is anything but one
``le-f64`` ``bytes`` vector, whose headers are mistyped or fail the
segment format checks, or whose rows do not consume the blob exactly.
"""

import base64
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datastore.codec import (
    ENCODING_B64,
    ENCODING_RAW,
    decode_values,
    encode_values,
)
from repro.datastore.wavesegment import TIME_CHANNEL, WaveSegment, check_format
from repro.exceptions import SchemaError, ValidationError
from repro.net import wire
from repro.rules.engine import ReleasedSegment, decode_release, encode_release
from repro.util.geo import LatLon
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
    location = draw(st.sampled_from([None, "zip-5203-8834", [34.07, -118.44], [-0.0, 0.0]]))
    kind = draw(st.sampled_from(["labels", "single", "multi", "nonuniform"]))
    if kind == "labels":
        ts = draw(st.sampled_from([None, 0, MONDAY]))
        return ReleasedSegment(
            "alice", Interval(ts or 0, (ts or 0) + 1), timestamp=ts, location=location,
            context_labels=labels or {"Stress": "Stressed"},
        )
    channels, interval_ms = {
        "single": (("ECG",), 250),
        "multi": (("AccelX", "AccelY", "AccelZ"), 20),
        "nonuniform": ((TIME_CHANNEL, "ECG", "Respiration"), None),
    }[kind]
    segment = _waveform(draw, channels, interval_ms)
    hour = segment.start_ms - segment.start_ms % 3_600_000  # a timestamp truncated to the hour
    return ReleasedSegment(
        "alice", segment.interval, segment=segment,
        timestamp=draw(st.sampled_from([segment.start_ms, hour, None])),
        location=location, context_labels=labels,
        withheld=draw(st.sampled_from([{}, {"GpsLat": "closure"}])),
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
    assert [p.interval for p in decoded] == [p.interval for p in released]
    sent = wire.encode(frame)
    assert wire.encode(encode_release(decoded)) == sent
    # The same after a trip through bytes, as over a real wire.
    assert _wire(decode_release(wire.decode(sent))) == _wire(released)
    # One blob holds exactly the samples of every waveform, nothing else;
    # a header is written once, and a piece is integers (or a null Timestamp).
    assert frame["Values"]["Samples"] == sum(
        p.segment.values.size for p in released if p.segment is not None
    )
    headers = [canonical_dumps(h) for h in frame["Headers"]]
    assert len(set(headers)) == len(headers) and "Blob" not in "".join(headers)
    assert all(
        type(cell) is int or (column == 1 and cell is None)
        for row in frame["Pieces"]
        for column, cell in enumerate(row)
    )


def test_empty_release_is_an_empty_frame():
    frame = encode_release([])
    assert frame == {
        "Headers": [], "Pieces": [], "Values": encode_values(np.empty((0, 1)), ENCODING_RAW)
    }
    assert frame["Values"]["Samples"] == 0 and frame["Values"]["Blob"] == b""
    assert decode_release(frame) == []


def test_label_only_pieces_consume_nothing():
    labels = ReleasedSegment(
        "alice", Interval(5, 6), timestamp=5, context_labels={"Stress": "Stressed"}
    )
    wave = ReleasedSegment(
        "alice", Interval(0, 1000), timestamp=0,
        segment=WaveSegment("alice", ("ECG",), 0, 1000, np.array([[1.5]])),  # 1 sample
    )
    frame = encode_release([labels, wave, labels])
    assert frame["Pieces"] == [[0, 5], [1, 0, 0, 1], [0, 5]]
    assert [header[6:] for header in frame["Headers"]] == [[None, None], [["ECG"], 1000]]
    assert decode_values(frame["Values"]).tolist() == [[1.5]]
    assert _wire(decode_release(frame)) == _wire([labels, wave, labels])


def test_a_waveform_s_start_rides_as_its_offset_from_its_timestamp():
    """``StartTime = (Timestamp or 0) + Offset``: 0 where the timestamp is
    the waveform's own start, the distance to it where time is truncated,
    the start itself where time is not shared."""
    wave = WaveSegment("alice", ("ECG",), MONDAY + 123, 250, np.array([[1.0], [2.0]]))
    released = [
        ReleasedSegment("alice", wave.interval, segment=wave, timestamp=ts)
        for ts in (MONDAY + 123, MONDAY, None)
    ]
    frame = encode_release(released)
    assert [row[1:3] for row in frame["Pieces"]] == [
        [MONDAY + 123, 0], [MONDAY, 123], [None, MONDAY + 123],
    ]  # fmt: skip
    decoded = decode_release(frame)
    assert [piece.segment.start_ms for piece in decoded] == [MONDAY + 123] * 3
    assert [piece.segment.segment_id for piece in decoded] == [wave.segment_id] * 3
    assert _wire(decoded) == _wire(released)


def test_pieces_that_share_a_header_name_it_once():
    """What pieces share travels once a frame: one header for two dozen
    one-channel pieces of the same person, levels and labels, a second
    for the label-only piece among them."""
    waves = [
        WaveSegment("alice", ("ECG",), 1000 * i, 250, np.full((4, 1), float(i)))
        for i in range(24)
    ]
    released = [
        ReleasedSegment("alice", w.interval, segment=w, timestamp=w.start_ms,
                        location="zip-5203-8834", location_level="zipcode",
                        context_labels={"Activity": "Still"}, withheld={"GpsLat": "closure"})
        for w in waves
    ]
    labels = ReleasedSegment("alice", Interval(0, 1), context_labels={"Stress": "Stressed"})
    released.insert(7, labels)
    frame = encode_release(released)
    assert len(frame["Headers"]) == 2
    assert [row[0] for row in frame["Pieces"]] == [0] * 7 + [1] + [0] * 17
    assert _wire(decode_release(frame)) == _wire(released)


def test_multi_channel_and_non_uniform_pieces_ravel_row_major():
    accel = WaveSegment("alice", ("AccelX", "AccelY"), 0, 20, np.array([[1.0, 2.0], [3.0, 4.0]]))
    timed = WaveSegment(
        "alice", (TIME_CHANNEL, "ECG"), 100, None, np.array([[100.0, 9.0], [107.0, 8.0]])
    )
    released = [
        ReleasedSegment("alice", s.interval, segment=s, timestamp=s.start_ms) for s in (accel, timed)
    ]
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


def test_decoded_pieces_share_no_mutable_member_with_the_frame():
    """A cache hit serves one frame to many fetches: what a consumer does
    to its pieces must not reach the frame, or the next consumer."""
    wave = WaveSegment("alice", ("ECG",), 0, 250, np.array([[1.0], [2.0]]))
    piece = ReleasedSegment("alice", wave.interval, segment=wave, location=[34.07, -118.44],
                            context_labels={"Activity": "Still"}, withheld={"GpsLat": "closure"})
    frame = encode_release([piece, piece])
    first, second = decode_release(frame)
    first.location.append(0.0)
    first.context_labels["Stress"] = "Stressed"
    first.withheld.clear()
    assert _wire([second]) == _wire([piece])
    assert _wire(decode_release(frame)) == _wire([piece, piece])


def test_each_header_is_checked_once_and_no_piece_is_parsed_from_json():
    """The format checks run per header, not per piece, and no waveform
    goes through a constructor that would repeat them or through a
    ``from_json``: a warm fetch builds 25 pieces from 2 checks."""
    wave = WaveSegment("alice", ("ECG",), 0, 250, np.ones((2, 1)))
    labels = ReleasedSegment("alice", Interval(0, 1), context_labels={"Stress": "Stressed"})
    released = [ReleasedSegment("alice", wave.interval, segment=wave)] * 5 + [labels] * 3
    frame = encode_release(released)
    assert len(frame["Headers"]) == 2
    with mock.patch(
        "repro.rules.engine.check_format", wraps=check_format
    ) as checked, mock.patch(
        "repro.datastore.wavesegment.check_format", side_effect=AssertionError("per piece")
    ), mock.patch.object(
        WaveSegment, "from_json", side_effect=AssertionError("from_json")
    ), mock.patch.object(
        ReleasedSegment, "from_json", side_effect=AssertionError("from_json")
    ):
        decoded = decode_release(frame)
    assert len(decoded) == 8 and checked.call_count == 1
    assert _wire(decoded) == _wire(released)


def test_a_decoded_piece_derives_its_interval_when_first_read():
    """No ``Interval`` is built for a uniform waveform or a label-only piece
    until its ``interval`` is read: then a waveform's is its segment's, and
    labels alone span ``[Timestamp or 0, +1)``, with a timestamp or without."""
    wave = WaveSegment("alice", ("ECG",), MONDAY + 123, 250, np.ones((3, 1)))
    released = [
        ReleasedSegment("alice", wave.interval, segment=wave, timestamp=MONDAY),
        ReleasedSegment("alice", Interval(MONDAY, MONDAY + 1), timestamp=MONDAY,
                        context_labels={"Stress": "Stressed"}),
        ReleasedSegment("alice", Interval(0, 1), context_labels={"Stress": "Stressed"}),
    ]
    frame = encode_release(released)
    with mock.patch(
        "repro.rules.engine.Interval", wraps=Interval
    ) as built_here, mock.patch(
        "repro.datastore.wavesegment.Interval", wraps=Interval
    ) as built_by_segment:
        decoded = decode_release(frame)
        assert built_here.call_count == built_by_segment.call_count == 0
        assert all("interval" not in vars(piece) for piece in decoded)
        spans = [piece.interval for piece in decoded]  # read: derived now, once each
        assert built_here.call_count == 2 and built_by_segment.call_count == 1
    waveform, stamped, unstamped = decoded
    assert spans == [waveform.segment.interval, Interval(MONDAY, MONDAY + 1), Interval(0, 1)]
    assert spans[0] == Interval(MONDAY + 123, MONDAY + 123 + 3 * 250)
    assert spans == [piece.interval for piece in released]
    assert all(vars(piece)["interval"] is piece.interval for piece in decoded)


_NOT_BARE = {
    "capture location": lambda w: replace(w, location=LatLon(34.07, -118.44)),
    "stored context": lambda w: w.with_context({"Activity": "Still"}),
    "another owner's waveform": lambda w: replace(w, contributor="mallory", segment_id=""),
    "an id of its own making": lambda w: replace(w, segment_id="ecg-1"),
    "an upper-case id": lambda w: replace(w, segment_id="00000000000000AB"),
}


@pytest.mark.parametrize("what", sorted(_NOT_BARE))
def test_a_waveform_that_is_not_bare_has_no_place_in_the_frame(what):
    """A header has no member for a waveform's capture location, stored
    context or owner, and no cell carries its id, which the consumer derives:
    ``encode_release`` refuses what the frame could not carry rather than
    dropping it silently — an id set other than its derivation included."""
    wave = WaveSegment("alice", ("ECG",), 0, 250, np.array([[1.0], [2.0]]))
    bad = _NOT_BARE[what](wave)
    with pytest.raises(ValidationError, match="bare"):
        encode_release([ReleasedSegment("alice", bad.interval, segment=bad)])
    assert decode_release(encode_release([ReleasedSegment("alice", wave.interval, segment=wave)]))


def _frame():
    """Two 2x1 waveforms around a label-only piece: four values.

    ``Headers`` is ``[waveform, labels]``; ``Pieces`` is ``[[0, null, 0,
    2], [1, null], [0, null, 0, 2]]``.
    """
    wave = WaveSegment("alice", ("ECG",), 0, 250, np.array([[1.0], [2.0]]))
    return encode_release(
        [
            ReleasedSegment("alice", wave.interval, segment=wave),
            ReleasedSegment("alice", Interval(0, 1), context_labels={"Stress": "Stressed"}),
            ReleasedSegment("alice", wave.interval, segment=wave),
        ]
    )


_COLUMNS = ("Header", "Timestamp", "Offset", "Samples")
#: a header row's cells, in order
_CELLS = ("Contributor", "TimeLevel", "Location", "LocationLevel", "ContextLabels", "Withheld",
          "Format", "SamplingInterval")  # fmt: skip


def _with_cells(index, **cells):
    frame = _frame()
    for name, value in cells.items():
        frame["Pieces"][index][_COLUMNS.index(name)] = value
    return frame


def _with_header(index, **cells):
    frame = _frame()
    for name, value in cells.items():
        frame["Headers"][index][_CELLS.index(name)] = value
    return frame


def _with_header_row(index, row):
    frame = _frame()
    frame["Headers"][index] = row
    return frame


def _with_pieces(pieces):
    return {**_frame(), "Pieces": pieces}


def _with_vector(n, encoding=ENCODING_RAW, channels=1):
    return {**_frame(), "Values": encode_values(np.zeros((n // channels, channels)), encoding)}


def _with_blob(**members):
    return {**_frame(), "Values": {**_frame()["Values"], **members}}


def _parent_piece(**segment):
    """One piece as the parent's frame sent it: an object whose waveform is
    a Fig. 5 segment with ``Values`` reduced to its shape."""
    waveform = {
        "SegmentId": "00000000000000ab", "Contributor": "alice", "StartTime": 0,
        "SamplingInterval": 250, "Location": None, "Format": ["ECG"],
        "Values": {"Samples": 2, "Channels": 1}, **segment,
    }
    return {
        "Contributor": "alice", "Timestamp": None, "TimeLevel": "milliseconds",
        "Location": None, "LocationLevel": "coordinates", "ContextLabels": {},
        "Segment": waveform, "Withheld": {},
    }


_WAVE, _LABELS = 0, 1  # header indexes in _frame()

MALFORMED = {
    # the frame and its members
    "frame is a list": _frame()["Pieces"],
    "frame is null": None,
    "no Headers": {"Pieces": _frame()["Pieces"], "Values": _frame()["Values"]},
    "no Pieces": {"Headers": _frame()["Headers"], "Values": _frame()["Values"]},
    "no Values": {"Headers": _frame()["Headers"], "Pieces": _frame()["Pieces"]},
    "Headers is an object": {**_frame(), "Headers": {}},
    "Pieces is an object": {**_frame(), "Pieces": {}},
    # a piece is a row, not an object: the parent's piece objects, whatever
    # they carry, are no second form
    "trailing non-object piece": _with_pieces(_frame()["Pieces"] + ["piece"]),
    "null piece": _with_pieces([None] + _frame()["Pieces"]),
    "Segment is a string": _with_pieces([{"Segment": "ECG"}]),
    "shape without Channels": _with_pieces([{"Segment": {"Values": {"Samples": 4}}}]),
    "shape is a number": _with_pieces([{"Segment": {"Values": 4}}]),
    "negative Channels": _with_pieces([{"Segment": {"Values": {"Samples": 2, "Channels": -1}}}]),
    "parent piece, well formed": _with_pieces([_parent_piece(), _parent_piece()]),
    "parent piece, waveform carries a capture location": _with_pieces(
        [_parent_piece(Location=[34.07, -118.44]), _parent_piece()]
    ),
    "parent piece, waveform carries stored context": _with_pieces(
        [_parent_piece(Context={"Activity": "Drive"}), _parent_piece()]
    ),
    "parent piece, waveform is another owner's": _with_pieces(
        [_parent_piece(Contributor="mallory"), _parent_piece()]
    ),
    # a header is a row of exactly its eight cells, typed, coerced nowhere
    "header is an object": _with_header_row(
        _WAVE, dict(zip(_CELLS, _frame()["Headers"][_WAVE]))
    ),
    "header is null": _with_header_row(_LABELS, None),
    "header of one cell": _with_header_row(_WAVE, ["alice"]),
    "header without Withheld": _with_header_row(
        _WAVE, [c for n, c in zip(_CELLS, _frame()["Headers"][_WAVE]) if n != "Withheld"]
    ),
    "header without SamplingInterval": _with_header_row(_WAVE, _frame()["Headers"][_WAVE][:7]),
    "header carries the waveform's Context": _with_header_row(
        _WAVE, _frame()["Headers"][_WAVE] + [{"Activity": "Drive"}]
    ),
    "header carries a Segment": _with_header_row(
        _WAVE, _frame()["Headers"][_WAVE] + [{"Location": [34.07, -118.44]}]
    ),
    "Contributor is a number": _with_header(_WAVE, Contributor=7),
    "TimeLevel is a number": _with_header(_WAVE, TimeLevel=7),
    "LocationLevel is null": _with_header(_LABELS, LocationLevel=None),
    "Location has three numbers": _with_header(_WAVE, Location=[34.0, -118.0, 0.0]),
    "Location is two booleans": _with_header(_WAVE, Location=[True, False]),
    "Location is an object": _with_header(_WAVE, Location={"Lat": 34.0}),
    "ContextLabels label is a number": _with_header(_LABELS, ContextLabels={"Stress": 3}),
    "ContextLabels is a list of pairs": _with_header(
        _LABELS, ContextLabels=[["Stress", "Stressed"]]
    ),
    "Withheld is text": _with_header(_WAVE, Withheld="x"),
    "Withheld reason is a number": _with_header(_WAVE, Withheld={"GpsLat": 1}),
    "Format is text": _with_header(_WAVE, Format="ECG"),
    "Format channel is a number": _with_header(_WAVE, Format=[7]),
    "SamplingInterval is a float": _with_header(_WAVE, SamplingInterval=250.9),
    "SamplingInterval is a whole float": _with_header(_WAVE, SamplingInterval=250.0),
    "SamplingInterval is numeric text": _with_header(_WAVE, SamplingInterval="250"),
    "SamplingInterval is a boolean": _with_header(_WAVE, SamplingInterval=True),
    "label header with an interval": _with_header(_LABELS, SamplingInterval=250),
    "zero Channels": _with_header(_WAVE, Format=[]),
    "header no piece names": {**_frame(), "Headers": _frame()["Headers"] + _frame()["Headers"][1:]},
    # a row is integers naming a header it fits
    "row of one": _with_pieces(_frame()["Pieces"][:2] + [[0]]),
    "row of three": _with_pieces(_frame()["Pieces"][:2] + [[0, None, 0]]),
    "row of five (the parent's, its id a number)": _with_pieces(
        _frame()["Pieces"][:2] + [[0, None, 0, 2, 0xAB]]
    ),
    "row names no header": _with_cells(0, Header=2),
    "row names a negative header": _with_cells(0, Header=-1),
    "row header is a boolean": _with_cells(1, Header=True),
    "label row under a waveform header": _with_pieces(_frame()["Pieces"][:2] + [[0, None]]),
    "waveform row under a label header": _with_cells(0, Header=1),
    "label piece Timestamp is text": _with_cells(1, Timestamp="5"),
    "Timestamp is a float": _with_cells(0, Timestamp=5.0),
    "Offset is a boolean": _with_cells(0, Offset=True),
    "Offset is numeric text": _with_cells(0, Offset="1000"),
    "Offset is null": _with_cells(0, Offset=None),
    "Offset is a float": _with_cells(2, Offset=0.0),
    "Samples is text": _with_cells(0, Samples="two"),
    "zero Samples": _with_cells(0, Samples=0),
    "negative Samples": _with_cells(2, Samples=-2),
    # the rows must consume the blob exactly
    "vector one short": _with_vector(3),
    "vector one long": _with_vector(5),
    "vector empty": _with_vector(0),
    "last piece overdraws": _with_cells(2, Samples=3),
    "last piece underdraws": _with_cells(2, Samples=1),
    # a non-uniform waveform's span is read at decode: its Time column must
    # not run backwards (this one ends at 11, before its start at 1000)
    "non-uniform waveform whose Time column ends before its start": {
        "Headers": [["alice", "milliseconds", None, "coordinates", {}, {}, ["Time", "ECG"], None]],
        "Pieces": [[0, 1000, 0, 2]],
        "Values": encode_values(np.array([[1000.0], [1.0], [10.0], [2.0]]), ENCODING_RAW),
    },
    # one blob, one wire form: the codec's stored encodings are refused here
    # exactly as the upload frame refuses them, whatever they hold
    "blob is not base64": _with_blob(Blob="@@@"),
    "blob shorter than declared": _with_blob(Samples=5),
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
    assert len(decode_release(wire.decode(wire.encode(_frame())))) == 3


def test_each_edit_is_the_only_defect_of_its_frame():
    """The helpers put the defect where the name says and nowhere else:
    putting the cell back gives back the well-formed frame."""
    assert _frame()["Headers"][_WAVE] == [
        "alice", "milliseconds", None, "coordinates", {}, {}, ["ECG"], 250,
    ]  # fmt: skip
    assert _with_header(_WAVE, Format=["ECG"], SamplingInterval=250) == _frame()
    assert _with_header(_LABELS, Withheld={}, LocationLevel="coordinates") == _frame()
    assert _with_header_row(_WAVE, list(_frame()["Headers"][_WAVE])) == _frame()
    assert _with_cells(0, Offset=0) == _with_cells(2, Samples=2) == _frame()
    assert _with_cells(2, Offset=0.0)["Pieces"][:2] == _frame()["Pieces"][:2]


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_frame_is_refused_whole(name):
    """Every refusal is a SchemaError raised before a list exists to return,
    including when the first pieces are well formed."""
    with pytest.raises(SchemaError):
        decode_release(MALFORMED[name])


_BAD_FORMATS = {
    "no channel": ([], 250),
    "a channel twice": (["ECG", "ECG"], 250),
    "zero interval": (["ECG"], 0),
    "negative interval": (["ECG"], -250),
    "non-uniform without a Time column": (["ECG"], None),
}


@pytest.mark.parametrize("what", sorted(_BAD_FORMATS))
def test_a_header_failing_the_format_checks_is_refused_whole(what):
    """A header is held to the very checks a ``WaveSegment`` is built
    under (``check_format``), once, before any row is read: a format no
    segment may have is a SchemaError for the frame, not a piece that
    fails later or a ValidationError from a constructor."""
    channels, interval_ms = _BAD_FORMATS[what]
    with pytest.raises(ValidationError):
        WaveSegment("alice", tuple(channels), 0, interval_ms, np.zeros((2, len(channels))))
    with pytest.raises(SchemaError, match="header 0"):
        decode_release(_with_header(_WAVE, Format=channels, SamplingInterval=interval_ms))
