"""Remote data store substrate.

A SensorSafe *remote data store* keeps a contributor's sensor streams as
**wave segments** (Fig. 5 of the paper): compact records holding a start
time, a sampling interval, a location, a tuple format, and a binary blob of
sample tuples.  This package provides:

* :mod:`repro.datastore.wavesegment` — the wave-segment ADT;
* :mod:`repro.datastore.codec` — blob encoding for sample arrays;
* :mod:`repro.datastore.database` — an embedded record table with sorted
  secondary indexes, which the per-tuple baseline (C1) stores rows in;
* :mod:`repro.datastore.optimizer` — the wave-segment merge optimizer
  (Section 5.1, "Wave Segment Optimization");
* :mod:`repro.datastore.query` — the data query language;
* :mod:`repro.datastore.segment_store` — the storage engine tying the
  above together.
"""

from repro.datastore.wavesegment import WaveSegment, segment_from_packet
from repro.datastore.codec import decode_values, encode_values
from repro.datastore.database import Table, TableSchema
from repro.datastore.index import IntervalIndex
from repro.datastore.optimizer import MergePolicy, SegmentOptimizer
from repro.datastore.query import DataQuery, QueryResult
from repro.datastore.segment_store import SegmentStore

__all__ = [
    "WaveSegment",
    "segment_from_packet",
    "decode_values",
    "encode_values",
    "Table",
    "TableSchema",
    "IntervalIndex",
    "MergePolicy",
    "SegmentOptimizer",
    "DataQuery",
    "QueryResult",
    "SegmentStore",
]
