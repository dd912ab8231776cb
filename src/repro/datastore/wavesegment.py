"""The wave-segment abstract data type (paper Fig. 5).

A wave segment is "the smallest unit of data representation": a value blob
(array of per-instant tuples across one or more channels) plus metadata —
start time, sampling interval, location, and the tuple format.  Segments
with uniform sampling store only ``start + interval``; segments with
per-sample timestamps (adaptive/compressive/episodic sampling) carry a
``Time`` pseudo-channel inside the blob instead, exactly as the paper
describes ("time and location stamps are stored in the value blob as
additional sensor channels").

Segments are immutable; merge/slice/abstraction operations return new
segments.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from repro.datastore.codec import decode_values, encode_values
from repro.exceptions import ValidationError
from repro.sensors.packets import SensorPacket
from repro.util.geo import LatLon
from repro.util.idgen import stable_id
from repro.util.jsonutil import require_keys
from repro.util.timeutil import Interval

#: Name of the per-sample timestamp pseudo-channel for non-uniform segments.
TIME_CHANNEL = "Time"


def check_format(channels: tuple, interval_ms: Optional[int]) -> None:
    """What a segment's tuple format and clock must be, whatever its samples:
    at least one channel, none twice, and either a positive whole sampling
    interval or a ``Time`` column.  Every :class:`WaveSegment` is held to it
    at construction; a release frame holds each of its headers to it once.
    """
    if not channels:
        raise ValidationError("segment must declare at least one channel")
    if len(set(channels)) != len(channels):
        raise ValidationError(f"duplicate channels in segment format: {channels}")
    if interval_ms is None:
        if TIME_CHANNEL not in channels:
            raise ValidationError("non-uniform segment must carry a Time column in its blob")
    elif interval_ms <= 0 or interval_ms != int(interval_ms):
        raise ValidationError(f"sampling interval must be a positive integer: {interval_ms!r}")


class _DerivedId:
    """``WaveSegment.segment_id`` of a segment built without one — a cut, a
    decoded release waveform: derived on first read, exactly as
    ``__post_init__`` derives it, and kept on the instance.  A non-data
    descriptor, unlike a property, steps aside once the instance holds
    the value, so every later read is a plain attribute read.  Its
    default (the class-level read) is the empty id the constructor
    replaces."""

    def __get__(self, segment, owner=None):
        if segment is None:
            return ""
        segment_id = stable_id(
            segment.contributor, segment.channels, segment.start_ms, len(segment.values)
        )
        vars(segment)["segment_id"] = segment_id
        return segment_id


@dataclass(frozen=True)
class WaveSegment:
    """An immutable run of samples over one or more channels.

    Attributes:
        contributor: owner of the data (rule enforcement is per-owner).
        channels: tuple format — the channel name for each blob column.
        start_ms: timestamp of the first sample.
        interval_ms: uniform sampling interval, or None when the blob
            carries a ``Time`` column with per-sample stamps.
        values: float64 array of shape (n_samples, len(channels)).
        location: capture location, or None for fixed/unknown sensors.
        context: inferred or ground-truth context labels valid for the
            whole segment, keyed by category name.
        segment_id: stable identifier derived from content coordinates.
    """

    contributor: str
    channels: tuple[str, ...]
    start_ms: int
    interval_ms: Optional[int]
    values: np.ndarray
    location: Optional[LatLon] = None
    context: dict = field(default_factory=dict)
    segment_id: str = _DerivedId()

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2:
            raise ValidationError(f"segment values must be 2-D, got shape {arr.shape}")
        if arr.shape[1] != len(self.channels):
            raise ValidationError(
                f"segment has {arr.shape[1]} value columns but {len(self.channels)} channels"
            )
        if arr.shape[0] == 0:
            raise ValidationError("segment must contain at least one sample")
        check_format(self.channels, self.interval_ms)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        if not self.segment_id:
            object.__setattr__(
                self,
                "segment_id",
                stable_id(self.contributor, self.channels, self.start_ms, arr.shape[0]),
            )

    @classmethod
    def _of_checked_format(
        cls, contributor, channels, start_ms, interval_ms, values, location=None, context=None
    ) -> "WaveSegment":
        """A segment built from fields that already hold what ``__post_init__``
        checks, without checking them again: ``channels`` already passed
        :func:`check_format` (a checked segment's own, or an ordered subset
        of them that keeps ``Time``) and ``values`` is a non-empty 2-D
        float64 ``(n, len(channels))`` view or copy, made read-only here.
        Every cut of a segment is built here, and so is every waveform
        :func:`repro.rules.engine.decode_release` reads after checking its
        header once; the ``segment_id`` is derived when first read
        (:class:`_DerivedId`).
        """
        if values.flags.writeable:  # a copy; a view of a checked segment is read-only
            values.setflags(write=False)
        segment = object.__new__(cls)
        object.__setattr__(
            segment,
            "__dict__",
            {
                "contributor": contributor,
                "channels": channels,
                "start_ms": start_ms,
                "interval_ms": interval_ms,
                "values": values,
                "location": location,
                "context": {} if context is None else context,
            },
        )
        return segment

    def _cut(self, start_ms: int, values: np.ndarray, channels=None) -> "WaveSegment":
        """This segment's samples ``values`` from ``start_ms``, over
        ``channels`` (its own by default), where and in what context they
        were taken kept."""
        return WaveSegment._of_checked_format(
            self.contributor,
            self.channels if channels is None else channels,
            start_ms,
            self.interval_ms,
            values,
            self.location,
            self.context,
        )

    # ------------------------------------------------------------------
    # Basic geometry
    # ------------------------------------------------------------------

    @property
    def n_samples(self) -> int:
        """Number of samples (rows) per channel."""
        return len(self.values)

    @property
    def end_ms(self) -> int:
        """Timestamp just past the last sample (half-open)."""
        if self.interval_ms is not None:
            return self.start_ms + self.n_samples * self.interval_ms
        times = self.sample_times()
        # Non-uniform: extend by the trailing gap (or 1ms for singletons).
        tail = int(times[-1] - times[-2]) if len(times) > 1 else 1
        return int(times[-1]) + max(1, tail)

    @property
    def interval(self) -> Interval:
        """The covered time interval, start-inclusive."""
        return Interval(self.start_ms, self.end_ms)

    @property
    def is_uniform(self) -> bool:
        """True when samples are uniformly spaced (interval_ms set)."""
        return self.interval_ms is not None

    def sample_times(self) -> np.ndarray:
        """Per-sample timestamps (epoch ms) as an int64 array."""
        if self.interval_ms is not None:
            return self.start_ms + np.arange(self.n_samples, dtype=np.int64) * self.interval_ms
        col = self.channels.index(TIME_CHANNEL)
        return self.values[:, col].astype(np.int64)

    def channel_values(self, channel_name: str) -> np.ndarray:
        """The blob column for one channel."""
        try:
            col = self.channels.index(channel_name)
        except ValueError:
            raise ValidationError(
                f"segment {self.segment_id} has no channel {channel_name!r}"
            ) from None
        return self.values[:, col]

    def storage_bytes(self) -> int:
        """Approximate on-disk size: blob bytes plus fixed metadata."""
        return self.values.nbytes + 96

    # ------------------------------------------------------------------
    # Merge (the wave-segment optimization primitive)
    # ------------------------------------------------------------------

    def can_merge(self, other: "WaveSegment") -> bool:
        """Can ``other`` be appended to this segment?

        The paper's rule: timestamps consecutive, same location
        coordinates, same data channels.  We additionally require equal
        sampling interval (otherwise the merged segment would not be
        uniform) and equal context annotation (a segment carries one label
        set).
        """
        return (
            self.contributor == other.contributor
            and self.channels == other.channels
            and self.is_uniform
            and other.is_uniform
            and self.interval_ms == other.interval_ms
            and self.end_ms == other.start_ms
            and self.location == other.location
            and self.context == other.context
        )

    def merge(self, other: "WaveSegment") -> "WaveSegment":
        """Append ``other`` (must satisfy :meth:`can_merge`)."""
        if not self.can_merge(other):
            raise ValidationError(
                f"segments {self.segment_id} and {other.segment_id} are not mergeable"
            )
        return replace(
            self,
            values=np.vstack([self.values, other.values]),
            segment_id="",
        )

    # ------------------------------------------------------------------
    # Slicing and projection (used by the rule engine)
    # ------------------------------------------------------------------

    def _sample_range(self, window: Interval) -> tuple:
        """Row range ``[first, stop)`` of a uniform segment inside ``window``.

        Sample ``i`` sits at ``start_ms + i * interval_ms``, so the first
        row at or after ``window.start`` and the first row at or after
        ``window.end`` are ceiling divisions; a half-open window over
        evenly spaced samples always selects one contiguous run.
        """
        step = self.interval_ms
        first = max(0, -((self.start_ms - window.start) // step))
        stop = min(len(self.values), -((self.start_ms - window.end) // step))
        return first, stop

    def slice_time(self, window: Interval) -> Optional["WaveSegment"]:
        """Samples falling inside ``window``, or None when empty."""
        if self.interval_ms is not None:
            first, stop = self._sample_range(window)
            if first >= stop:
                return None
            if first == 0 and stop == self.n_samples:
                return self
            return self._cut(self.start_ms + first * self.interval_ms, self.values[first:stop])
        times = self.sample_times()
        mask = (times >= window.start) & (times < window.end)
        if not mask.any():
            return None
        if mask.all():
            return self
        return self._cut(int(times[mask][0]), self.values[mask])

    def _kept_channels(self, names: Sequence[str]) -> tuple:
        """The segment's channels among ``names``, in segment order.

        The ``Time`` pseudo-channel is always retained.  When every
        channel is kept the result *is* ``self.channels``, so projections
        that change nothing share the tuple instead of holding a copy.
        """
        wanted = {TIME_CHANNEL, *names}
        if wanted.issuperset(self.channels):
            return self.channels
        return tuple([c for c in self.channels if c in wanted])

    def select_channels(self, names: Sequence[str]) -> Optional["WaveSegment"]:
        """Project onto a subset of channels; None when none remain.

        The ``Time`` pseudo-channel of a non-uniform segment is always
        retained.
        """
        keep = self._kept_channels(names)
        if not keep or (not self.is_uniform and keep == (TIME_CHANNEL,)):
            return None
        if keep is self.channels:
            return self
        cols = [self.channels.index(c) for c in keep]
        return self._cut(self.start_ms, self.values[:, cols], keep)

    def released_piece(
        self, window: Interval, names: Sequence[str], anchor_ms: Optional[int] = None
    ) -> Optional["WaveSegment"]:
        """What a uniform segment releases for one rule piece, built once.

        The samples inside ``window``, projected onto ``names``, stripped
        by :meth:`bare` and — when ``anchor_ms`` is given — with the clock
        re-anchored there.  Equal to ``slice_time`` → ``select_channels``
        → re-anchor → ``bare`` without the intermediate copies; None when
        no sample or no channel survives.
        """
        first, stop = self._sample_range(window)
        keep = self._kept_channels(names)
        if first >= stop or not keep:
            return None
        # A fully covered segment shares the stored array itself, not a
        # fresh view of it: the release cache holds these by the thousand.
        values = self.values
        if first > 0 or stop < len(values):
            values = values[first:stop]
        if keep is not self.channels:
            values = values[:, [self.channels.index(c) for c in keep]]
        if anchor_ms is None:
            anchor_ms = self.start_ms + first * self.interval_ms
        return self.bare(channels=keep, start_ms=anchor_ms, values=values)

    def with_context(self, context: dict) -> "WaveSegment":
        """Return a copy annotated with context labels."""
        return replace(self, context=dict(context), segment_id="")

    def bare(self, *, channels=None, start_ms=None, values=None) -> "WaveSegment":
        """The waveform alone: no capture location, no stored context.

        The one stripping step of release shaping (optionally with the
        fields a shaped piece changes).  It copies what a release keeps
        rather than clearing what it drops: where and in what context the
        samples were taken leave the store only as the rule-shaped
        ``Location`` and ``ContextLabels`` of the released piece.
        """
        return WaveSegment._of_checked_format(
            self.contributor,
            self.channels if channels is None else channels,
            self.start_ms if start_ms is None else start_ms,
            self.interval_ms,
            self.values if values is None else values,
        )

    # ------------------------------------------------------------------
    # JSON (Fig. 5 round trip)
    # ------------------------------------------------------------------

    def to_json(self) -> dict:
        """JSON wire form (Fig. 5); sample values are codec-encoded as
        base64 text, so the segment is a pure JSON document (snapshot rows,
        dumps).  The journal writes segments as a batch
        (:func:`repro.storage.records.segment_batch`), samples as bytes."""
        obj = {
            "SegmentId": self.segment_id,
            "Contributor": self.contributor,
            "StartTime": self.start_ms,
            "SamplingInterval": self.interval_ms,
            "Location": self.location.to_json() if self.location else None,
            "Format": list(self.channels),
            "Values": encode_values(self.values),
        }
        if self.context:
            obj["Context"] = dict(self.context)
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "WaveSegment":
        """Parse a segment from its JSON wire form."""
        require_keys(
            obj,
            ("Contributor", "StartTime", "Format", "Values"),
            where="wave segment",
        )
        location = obj.get("Location")
        interval = obj.get("SamplingInterval")
        return cls(
            contributor=str(obj["Contributor"]),
            channels=tuple(obj["Format"]),
            start_ms=int(obj["StartTime"]),
            interval_ms=None if interval is None else int(interval),
            values=decode_values(obj["Values"]),
            location=LatLon.from_json(location) if location else None,
            context=dict(obj.get("Context", {})),
            segment_id=str(obj.get("SegmentId", "")),
        )


def segment_from_packet(contributor: str, packet: SensorPacket) -> WaveSegment:
    """Convert a firmware packet into a single-channel wave segment: a
    column view of the packet's samples, not a copy, under the id the store
    dedupes that packet by.  The store's ingest builds no such segment (a
    packet enters the optimizer as a cut, :meth:`SegmentStore.add_packets`);
    this is the phone's rule probe and a test's or benchmark's way to offer
    one packet as a segment."""
    return WaveSegment(
        contributor=contributor,
        channels=(packet.channel_name,),
        start_ms=packet.start_ms,
        interval_ms=packet.interval_ms,
        values=packet.values.reshape(-1, 1),
        location=packet.location,
        context=dict(packet.context),
    )
