"""Windowed aggregate queries over wave segments.

Design consideration "Data-store functionality" (Section 3): the retrieval
mechanism "should not limit kinds of queries that applications can issue".
Raw segment retrieval covers signal processing; studies usually want
summaries — mean heart rate per hour, activity counts per day.  This
module computes windowed aggregates (mean/min/max/count/std) over any
collection of segments, and the service exposes it *behind* the rule
engine, so a consumer's aggregates are computed only over the data their
rules release.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.datastore.wavesegment import TIME_CHANNEL, WaveSegment
from repro.exceptions import QueryError

AGGREGATE_FUNCTIONS = ("mean", "min", "max", "count", "std", "sum")


@dataclass(frozen=True)
class AggregateSpec:
    """What to aggregate and how."""

    function: str
    window_ms: int

    def __post_init__(self) -> None:
        if self.function not in AGGREGATE_FUNCTIONS:
            raise QueryError(
                f"unknown aggregate function {self.function!r}; "
                f"expected one of {AGGREGATE_FUNCTIONS}"
            )
        if self.window_ms <= 0:
            raise QueryError(f"aggregate window must be positive: {self.window_ms}")

    def to_json(self) -> dict:
        """JSON wire form of this spec."""
        return {"Function": self.function, "WindowMs": self.window_ms}

    @classmethod
    def from_json(cls, obj: dict) -> "AggregateSpec":
        """Parse a spec from its JSON wire form."""
        if not isinstance(obj, dict):
            raise QueryError("aggregate spec must be a JSON object")
        try:
            return cls(str(obj["Function"]), int(obj["WindowMs"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise QueryError(f"malformed aggregate spec: {obj!r}") from exc


@dataclass(frozen=True)
class AggregateRow:
    """One (channel, window) result."""

    channel: str
    window_start_ms: int
    value: float
    count: int

    def to_json(self) -> dict:
        """JSON wire form of this row."""
        return {
            "Channel": self.channel,
            "WindowStart": self.window_start_ms,
            "Value": self.value,
            "Count": self.count,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "AggregateRow":
        """Parse a row from its JSON wire form."""
        return cls(
            channel=str(obj["Channel"]),
            window_start_ms=int(obj["WindowStart"]),
            value=float(obj["Value"]),
            count=int(obj["Count"]),
        )


def _reduce(function: str, values: np.ndarray) -> float:
    if function == "mean":
        return float(values.mean())
    if function == "min":
        return float(values.min())
    if function == "max":
        return float(values.max())
    if function == "count":
        return float(len(values))
    if function == "std":
        return float(values.std())
    return float(values.sum())  # "sum"


def aggregate_segments(
    segments: Iterable[WaveSegment], spec: AggregateSpec
) -> list:
    """Aggregate raw segments into per-channel windowed rows.

    Windows are aligned to ``floor(ts / window_ms)`` so rows from separate
    segments of one stream combine deterministically.  A segment's samples
    are grouped by window once, by a stable sort, so each window gets its
    samples in their segment's order.  Rows are returned sorted by
    (channel, window start).
    """
    buckets: dict = {}  # (channel, window) -> list of value arrays
    for segment in segments:
        window_ids = segment.sample_times() // spec.window_ms
        order = np.argsort(window_ids, kind="stable")
        ids, firsts = np.unique(window_ids[order], return_index=True)
        for channel in segment.channels:
            if channel == TIME_CHANNEL:
                continue
            groups = np.split(segment.channel_values(channel)[order], firsts[1:])
            for window_id, values in zip(ids.tolist(), groups):
                buckets.setdefault((channel, window_id), []).append(values)
    rows = []
    for (channel, window_id), chunks in sorted(buckets.items()):
        values = np.concatenate(chunks)
        rows.append(
            AggregateRow(
                channel=channel,
                window_start_ms=window_id * spec.window_ms,
                value=_reduce(spec.function, values),
                count=int(len(values)),
            )
        )
    return rows


def aggregate_released(released: Iterable, spec: AggregateSpec) -> list:
    """Aggregate the raw payload of ReleasedSegments.

    Only released *segments* contribute — labels and locations have no
    numeric waveform to aggregate — so anything the rule engine withheld
    is invisible to the aggregate, by construction.
    """
    segments = [item.segment for item in released if item.segment is not None]
    return aggregate_segments(segments, spec)
