"""Sensor packets: the unit of transmission from device firmware.

Real wearables ship samples in small fixed-size packets — the paper notes
the Zephyr chest band transmits 64 ECG samples per packet — and the phone
relays those packets to the remote data store, where the wave-segment
optimizer merges them (Section 5.1, "Wave Segment Optimization").  A packet
is therefore deliberately *small*; the interesting storage behaviour comes
from how the store coalesces many of them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.exceptions import SchemaError, ValidationError
from repro.sensors.channels import channel
from repro.util.geo import LatLon
from repro.util.jsonutil import require_keys, require_type
from repro.util.timeutil import Interval


@dataclass(frozen=True)
class SensorPacket:
    """A burst of uniformly sampled values from one channel.

    Attributes:
        channel_name: which sensor channel produced the samples.
        start_ms: timestamp of the first sample (epoch ms, UTC).
        interval_ms: spacing between consecutive samples.
        values: the samples, oldest first: a read-only 1-D float64 array.
            One that already is (a slice of a run or of a frame's blob) is
            adopted; anything else numeric is copied, never aliased.
        location: device location when the packet was captured, if known.
        context: ground-truth context labels at capture time, keyed by
            category ("Activity" -> "Drive").  Carried only by the
            simulator for scoring; real devices would not have this.

    ``==`` is by value (``np.array_equal`` on samples); the hash leaves them and ``context`` out.
    """

    channel_name: str
    start_ms: int
    interval_ms: int
    values: np.ndarray = field(compare=False)  # compared by __eq__
    location: Optional[LatLon] = None
    context: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        channel(self.channel_name)  # validates the name
        values = np.asarray(self.values)
        if values.dtype.kind not in "iuf" or values.ndim != 1 or values.size == 0:
            raise ValidationError(
                "sensor packet must contain at least one sample, as one 1-D run of numbers: "
                f"got dtype {values.dtype}, shape {values.shape}"
            )
        if values.dtype != np.float64 or values.flags.writeable:
            values = values.astype(np.float64)  # always a copy
            values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if self.interval_ms <= 0:
            raise ValidationError(f"non-positive sample interval: {self.interval_ms}")

    @classmethod
    def _of_checked(cls, channel_name, start_ms, interval_ms, values, location, context):
        """A packet built from fields that already hold what ``__post_init__``
        checks, without checking them again: a known channel, a positive
        interval, ``values`` a non-empty read-only 1-D float64 array — a
        checked packet's own, or a slice of a frame's checked blob.
        ``context`` is adopted, not copied.  Set field by field, as the
        constructor does, so the instance keeps CPython's shared-key dict."""
        packet = object.__new__(cls)
        setattr_ = object.__setattr__
        setattr_(packet, "channel_name", channel_name)
        setattr_(packet, "start_ms", start_ms)
        setattr_(packet, "interval_ms", interval_ms)
        setattr_(packet, "values", values)
        setattr_(packet, "location", location)
        setattr_(packet, "context", context)
        return packet

    def relabeled(self, context: dict) -> "SensorPacket":
        """This packet with ``context`` (adopted) as its labels; nothing
        else is copied or checked again."""
        return SensorPacket._of_checked(
            self.channel_name, self.start_ms, self.interval_ms, self.values, self.location, context
        )

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine = (self.channel_name, self.start_ms, self.interval_ms, self.location)
        theirs = (other.channel_name, other.start_ms, other.interval_ms, other.location)
        return mine == theirs and np.array_equal(self.values, other.values)

    @property
    def end_ms(self) -> int:
        """Timestamp just past the last sample (half-open convention)."""
        return self.start_ms + len(self.values) * self.interval_ms

    @property
    def interval(self) -> Interval:
        return Interval(self.start_ms, self.end_ms)

    def sample_times(self) -> list[int]:
        return [self.start_ms + i * self.interval_ms for i in range(len(self.values))]

    def to_json(self) -> list:
        """The packet's capture inside an :func:`encode_upload` frame,
        ``[Location, Context]``: what it shares with every packet taken at
        the same place under the same labels, whatever its channel.  Its
        channel and interval are its stream's row, its start time and sample
        count its own row; its samples ride the frame's blob."""
        return _capture_row(self.location, self.context)

    @classmethod
    def from_json(cls, row, captures: list, cuts: list) -> list:
        """The packets of one stream: its ``[Channel, SamplingInterval,
        capture]`` row, checked once and coerced nowhere, the parsed
        ``captures`` it points into, and each packet's ``(start_ms, values)``
        — a non-empty slice of a checked blob.  The row is the only thing
        checked: every packet is built over its slice unchecked
        (:meth:`_of_checked`), and the stream's packets share its
        capture's location and label dict."""
        name, interval, capture = row if type(row) is list and len(row) == 3 else [None] * 3
        if not (isinstance(name, str) and type(interval) is type(capture) is int
                and 0 <= capture < len(captures)):  # fmt: skip
            raise SchemaError(
                "upload frame: a stream is [Channel: text, SamplingInterval: integer, "
                "capture: an index into Captures]"
            )
        channel(name)  # validates the name
        if interval <= 0:
            raise ValidationError(f"non-positive sample interval: {interval}")
        location, context = captures[capture]
        build = cls._of_checked
        return [build(name, t, interval, v, location, context) for t, v in cuts]

    def follows(self, other: "SensorPacket") -> bool:
        """True when this packet continues ``other`` seamlessly.

        Seamless means: same channel, same sampling interval, and this
        packet's first sample lands exactly one interval after the other's
        last sample.  This is the precondition the wave-segment merge
        optimizer checks (plus location equality, handled at segment level).
        """
        return (
            self.channel_name == other.channel_name
            and self.interval_ms == other.interval_ms
            and self.start_ms == other.end_ms
        )


def encode_upload(packets: Iterable[SensorPacket]) -> dict:
    """The wire form of a phone upload: one frame, one value blob.

    ``Captures`` is each distinct :meth:`SensorPacket.to_json` — a
    ``[Location, Context]`` pair — once, first use first, keyed by its bits
    (a ``-0.0`` coordinate is not ``0.0``); ``Streams`` each distinct
    ``[Channel, SamplingInterval, capture]`` row once, the same way;
    ``Packets`` one ``[stream, start_ms, count]`` row of integers a packet;
    ``Values`` every packet's samples, in row order, as one codec blob (the
    paper's wave-segment argument applied to the uplink).  The only producer
    of an ``/api/upload_packets`` request's ``Upload``; :func:`decode_upload`
    is its only parser.  A non-finite sample is a ``SchemaError`` here,
    before anything is sent: a blob would carry it into the store silently.
    """
    # deferred: datastore imports this module
    from repro.datastore.codec import ENCODING_RAW, encode_values

    packets = list(packets)
    flat = np.concatenate([p.values for p in packets]) if packets else np.empty(0)
    _require_finite(flat)
    table, capture_of = encode_captures((p.location, p.context) for p in packets)
    index, streams, rows = {}, [], []
    for p, capture in zip(packets, capture_of):
        stream = (p.channel_name, p.interval_ms, capture)
        if stream not in index:
            index[stream] = len(streams)
            streams.append(list(stream))
        rows.append([index[stream], p.start_ms, len(p.values)])
    return {
        **table,
        "Streams": streams,
        "Packets": rows,
        "Values": encode_values(flat.reshape(-1, 1), ENCODING_RAW),
    }


def decode_upload(frame: dict) -> list:
    """Parse an upload frame into its :class:`SensorPacket` list.

    The blob is decoded once, each capture and each stream row is parsed
    and checked once (:meth:`SensorPacket.from_json`), and every packet is
    built over a read-only view of the frame's bytes, in row order, with no
    check or label copy of its own: a stream's packets share its capture.
    :class:`~repro.exceptions.SchemaError`, before any packet is returned,
    unless the blob is ``le-f64`` bytes of one channel (neither base64 nor a
    decimal list is a second wire form), every row is three integers naming
    a stream, every stream names a capture, every capture and stream is
    used and parses, and the counts consume the (finite) samples exactly.
    """
    from repro.datastore.codec import decode_frame_values  # deferred, as above

    require_keys(frame, ("Captures", "Streams", "Packets", "Values"), where="upload frame")
    flat = decode_frame_values(frame["Values"], where="upload frame")
    _require_finite(flat)
    captures = decode_captures(frame, where="upload frame")
    streams = require_type(frame["Streams"], list, where="upload frame Streams")
    cuts, order, offset = [[] for _ in streams], [], 0
    for row in require_type(frame["Packets"], list, where="upload frame Packets"):
        stream, start, count = row if type(row) is list and len(row) == 3 else (None, None, None)
        if type(stream) is not int or type(start) is not int or type(count) is not int:
            raise SchemaError(f"upload frame: packet {len(order)} is not three integers")
        if not 0 <= stream < len(streams) or count <= 0 or offset + count > len(flat):
            raise SchemaError(f"upload frame: packet {len(order)} names no stream or overruns")
        order.append((stream, len(cuts[stream])))
        cuts[stream].append((start, flat[offset : offset + count]))
        offset += count
    if offset != len(flat) or not all(cuts):
        raise SchemaError(f"upload frame: packets consume {offset} of {len(flat)} values "
                          f"and {sum(map(bool, cuts))} of {len(streams)} streams")  # fmt: skip
    built = [SensorPacket.from_json(stream, captures, cut) for stream, cut in zip(streams, cuts)]
    named = {stream[2] for stream in streams}
    if len(named) != len(captures):
        raise SchemaError(f"upload frame: streams name {len(named)} of {len(captures)} captures")
    return [built[stream][i] for stream, i in order]


def _capture_row(location: Optional[LatLon], context: dict) -> list:
    return [location.to_json() if location else None, dict(context)]


def encode_captures(taken: Iterable[tuple]) -> tuple:
    """``(table, index)``: a frame's ``Captures`` member for the ``(location,
    context)`` pairs ``taken`` — each distinct ``[Location, Context]`` once,
    first use first, keyed by its bits (a ``-0.0`` coordinate is not ``0.0``)
    — and, for each pair in order, the row it points at.  The one producer
    of a capture table, which an upload frame and a journaled segment batch
    (:mod:`repro.storage.records`) share; :func:`decode_captures` reads it.

    Packets of one window share a label dict, so the key is worked out once
    per distinct pair of *objects*; the pair is held for the call, so its
    ids cannot be reused by another pair."""
    index, rows, capture_of, seen = {}, [], [], {}
    for location, context in taken:
        known = seen.get((id(location), id(context)))
        if known is None:
            where = None if location is None else struct.pack("<2d", *location.to_json())
            key = (where, frozenset(context.items()))
            if key not in index:
                index[key] = len(rows)
                rows.append(_capture_row(location, context))
            known = seen[id(location), id(context)] = (index[key], location, context)
        capture_of.append(known[0])
    return {"Captures": rows}, capture_of


def decode_captures(frame: dict, *, where: str) -> list:
    """Each capture of ``frame``'s table as ``(LatLon or None, labels)``,
    parsed once: :class:`~repro.exceptions.SchemaError` unless every one is
    exactly ``[Location: null or two numbers, Context: {text: text}]``.
    Whether every capture is used is the frame parser's to check."""
    require_keys(frame, ("Captures",), where=where)
    captures = require_type(frame["Captures"], list, where=f"{where} Captures")
    return [_capture(obj, n, where) for n, obj in enumerate(captures)]


def _capture(obj, n: int, where: str) -> tuple:
    """One capture, ``[Location, Context]``, as ``(LatLon or None, labels)``:
    what the packets or segments pointing at it are built with."""
    location, context = obj if type(obj) is list and len(obj) == 2 else (False, None)
    place = location is None or type(location) is list and len(location) == 2 and all(
        isinstance(x, (int, float)) and type(x) is not bool for x in location
    )
    labels = type(context) is dict and all(
        isinstance(k, str) and isinstance(v, str) for k, v in context.items()
    )
    if not (place and labels):
        raise SchemaError(f"{where}: capture {n} is not [Location: null or two numbers, "
                          "Context: {text: text}]")  # fmt: skip
    return None if location is None else LatLon.from_json(location), context


def _require_finite(flat: np.ndarray) -> None:
    if not np.isfinite(flat).all():
        raise SchemaError("upload frame: sample values must be finite")


def packetize(
    channel_name: str,
    start_ms: int,
    interval_ms: int,
    values: Sequence[float],
    *,
    packet_samples: Optional[int] = None,
    location: Optional[LatLon] = None,
    context: Optional[dict] = None,
) -> list[SensorPacket]:
    """Split a sample run into firmware-sized packets.

    ``packet_samples`` defaults to the channel's hardware packet size.
    """
    if packet_samples is None:
        packet_samples = channel(channel_name).packet_samples
    if packet_samples <= 0:
        raise ValidationError(f"packet_samples must be positive: {packet_samples}")
    run = np.array(values, dtype=np.float64)  # the one copy; packets are views
    run.setflags(write=False)
    return [
        SensorPacket(
            channel_name=channel_name,
            start_ms=start_ms + offset * interval_ms,
            interval_ms=interval_ms,
            values=run[offset : offset + packet_samples],
            location=location,
            context=dict(context or {}),
        )
        for offset in range(0, len(run), packet_samples)
    ]
