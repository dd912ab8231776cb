"""Per-tuple time-series storage — the baseline wave segments replace.

Section 5.1: "Storing the time series of sensor data as individual tuples
is inefficient both in terms of storage size and querying time."  This
store does exactly that: every sample becomes one database record
``(timestamp, channel, value, lat, lon)`` with a sorted time index.  The
C1 benchmark compares its record counts, storage bytes, and range-query
latency against the wave-segment store at various merge policies.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.datastore.database import Table, TableSchema
from repro.sensors.packets import SensorPacket
from repro.util.timeutil import Interval

#: Approximate on-disk bytes per tuple record: 8B timestamp + 8B value +
#: 16B location + channel name + row header.  Matches how a row store
#: would lay this out; the constant only needs to be honest relative to
#: WaveSegment.storage_bytes().
_TUPLE_BYTES = 56


class TupleStore:
    """One sample per record, per contributor."""

    def __init__(self):
        self._table = Table(
            TableSchema(
                "samples", key=lambda r: r["id"], indexes={"time": lambda r: r["ts"]}
            )
        )
        self._next_id = 0
        self.storage_bytes = 0

    def __len__(self) -> int:
        return len(self._table)

    def add_packet(self, contributor: str, packet: SensorPacket) -> int:
        """Explode a packet into per-sample records; returns rows added."""
        location = packet.location
        for i, value in enumerate(packet.values):
            self._table.insert(
                {
                    "id": self._next_id,
                    "contributor": contributor,
                    "channel": packet.channel_name,
                    "ts": packet.start_ms + i * packet.interval_ms,
                    "value": float(value),
                    "lat": location.lat if location else None,
                    "lon": location.lon if location else None,
                }
            )
            self._next_id += 1
            self.storage_bytes += _TUPLE_BYTES
        return len(packet.values)

    def query_range(
        self,
        contributor: str,
        window: Interval,
        channels: Optional[Iterable[str]] = None,
    ) -> list:
        """Rows for one contributor in a time window, ordered by time."""
        wanted = set(channels) if channels is not None else None
        out = []
        for row in self._table.range("time", window.start, window.end):
            if row["contributor"] != contributor:
                continue
            if wanted is not None and row["channel"] not in wanted:
                continue
            out.append(row)
        return out

    def record_count(self) -> int:
        return len(self._table)
