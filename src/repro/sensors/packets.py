"""Sensor packets: the unit of transmission from device firmware.

Real wearables ship samples in small fixed-size packets — the paper notes
the Zephyr chest band transmits 64 ECG samples per packet — and the phone
relays those packets to the remote data store, where the wave-segment
optimizer merges them (Section 5.1, "Wave Segment Optimization").  A packet
is therefore deliberately *small*; the interesting storage behaviour comes
from how the store coalesces many of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.exceptions import ValidationError
from repro.sensors.channels import channel
from repro.util.geo import LatLon
from repro.util.jsonutil import require_keys
from repro.util.timeutil import Interval


@dataclass(frozen=True)
class SensorPacket:
    """A burst of uniformly sampled values from one channel.

    Attributes:
        channel_name: which sensor channel produced the samples.
        start_ms: timestamp of the first sample (epoch ms, UTC).
        interval_ms: spacing between consecutive samples.
        values: the samples, oldest first.
        location: device location when the packet was captured, if known.
        context: ground-truth context labels at capture time, keyed by
            category ("Activity" -> "Drive").  Carried only by the
            simulator for scoring; real devices would not have this.
    """

    channel_name: str
    start_ms: int
    interval_ms: int
    values: tuple[float, ...]
    location: Optional[LatLon] = None
    context: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        channel(self.channel_name)  # validates the name
        if not self.values:
            raise ValidationError("sensor packet must contain at least one sample")
        if self.interval_ms <= 0:
            raise ValidationError(f"non-positive sample interval: {self.interval_ms}")

    @property
    def end_ms(self) -> int:
        """Timestamp just past the last sample (half-open convention)."""
        return self.start_ms + len(self.values) * self.interval_ms

    @property
    def interval(self) -> Interval:
        return Interval(self.start_ms, self.end_ms)

    def sample_times(self) -> list[int]:
        return [self.start_ms + i * self.interval_ms for i in range(len(self.values))]

    def to_json(self) -> dict:
        """Wire format used by the phone's upload API."""
        return {
            "Channel": self.channel_name,
            "StartTime": self.start_ms,
            "SamplingInterval": self.interval_ms,
            "Values": list(self.values),
            "Location": self.location.to_json() if self.location else None,
            "Context": dict(self.context),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SensorPacket":
        require_keys(
            obj, ("Channel", "StartTime", "SamplingInterval", "Values"), where="packet"
        )
        location = obj.get("Location")
        return cls(
            channel_name=str(obj["Channel"]),
            start_ms=int(obj["StartTime"]),
            interval_ms=int(obj["SamplingInterval"]),
            values=tuple(float(v) for v in obj["Values"]),
            location=LatLon.from_json(location) if location else None,
            context=dict(obj.get("Context", {})),
        )

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
    packets = []
    for offset in range(0, len(values), packet_samples):
        chunk = tuple(values[offset : offset + packet_samples])
        packets.append(
            SensorPacket(
                channel_name=channel_name,
                start_ms=start_ms + offset * interval_ms,
                interval_ms=interval_ms,
                values=chunk,
                location=location,
                context=dict(context or {}),
            )
        )
    return packets
