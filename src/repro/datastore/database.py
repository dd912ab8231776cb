"""Embedded record table with sorted secondary indexes.

An in-process :class:`Table` keyed by a primary key, with any number of
sorted secondary indexes (maintained with ``bisect``, so range scans are
O(log n + k)).  The per-tuple baseline (:mod:`repro.baselines.tuple_store`,
claim C1) stores its rows here; a wave-segment store needs no secondary
index and keeps its segments in a dict.

Records are arbitrary Python objects; a table is configured with a ``key``
extractor and its index key functions.  It is memory only: what a store
must not lose is journaled and snapshotted as records by
:mod:`repro.storage`, not by the table that holds it.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from repro.exceptions import DuplicateKeyError, MissingRecordError, StorageError


class _SortedIndex:
    """A sorted (key, primary_key) list supporting range queries.

    Keys must be mutually comparable; heterogeneous keys raise at insert
    time rather than corrupting the order.
    """

    def __init__(self, name: str, key_func: Callable[[Any], Any]):
        self.name = name
        self.key_func = key_func
        self._entries: list[tuple[Any, Any]] = []  # (index key, pk), sorted

    def insert(self, pk: Any, record: Any) -> None:
        entry = (self.key_func(record), pk)
        pos = bisect.bisect_left(self._entries, entry)
        self._entries.insert(pos, entry)

    def remove(self, pk: Any, record: Any) -> None:
        entry = (self.key_func(record), pk)
        pos = bisect.bisect_left(self._entries, entry)
        if pos < len(self._entries) and self._entries[pos] == entry:
            del self._entries[pos]
        else:  # pragma: no cover - defensive; indicates index corruption
            raise StorageError(f"index {self.name}: entry for pk {pk!r} not found")

    def range(self, lo: Any = None, hi: Any = None) -> Iterator[Any]:
        """Primary keys whose index key is in [lo, hi); None means open."""
        start = 0 if lo is None else bisect.bisect_left(self._entries, (lo,))
        for key, pk in self._entries[start:]:
            if hi is not None and key >= hi:
                break
            yield pk

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class TableSchema:
    """Configuration for one table."""

    name: str
    key: Callable[[Any], Any]
    indexes: dict = field(default_factory=dict)  # name -> key func


class Table:
    """One table: primary-key dict plus sorted secondary indexes."""

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self._records: dict[Any, Any] = {}
        self._indexes: dict[str, _SortedIndex] = {
            name: _SortedIndex(name, fn) for name, fn in schema.indexes.items()
        }

    @property
    def name(self) -> str:
        """The table's name, from its schema."""
        return self.schema.name

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, pk: Any) -> bool:
        return pk in self._records

    def insert(self, record: Any) -> Any:
        """Insert a new record; returns its primary key."""
        pk = self.schema.key(record)
        if pk in self._records:
            raise DuplicateKeyError(f"{self.name}: duplicate primary key {pk!r}")
        self._records[pk] = record
        for index in self._indexes.values():
            index.insert(pk, record)
        return pk

    def get(self, pk: Any) -> Any:
        """The record stored under ``pk``; raises MissingRecordError if absent."""
        try:
            return self._records[pk]
        except KeyError:
            raise MissingRecordError(f"{self.name}: no record with key {pk!r}") from None

    def find(self, pk: Any) -> Optional[Any]:
        """Like :meth:`get` but returns None instead of raising."""
        return self._records.get(pk)

    def delete(self, pk: Any) -> Any:
        """Remove and return the record stored under ``pk``."""
        record = self.get(pk)
        del self._records[pk]
        for index in self._indexes.values():
            index.remove(pk, record)
        return record

    def range(self, index_name: str, lo: Any = None, hi: Any = None) -> Iterator[Any]:
        """Records whose ``index_name`` key lies in ``[lo, hi)``."""
        try:
            index = self._indexes[index_name]
        except KeyError:
            raise StorageError(f"{self.name}: no index named {index_name!r}") from None
        for pk in index.range(lo, hi):
            yield self._records[pk]

    def select(self, predicate: Callable[[Any], bool]) -> list:
        """Full-scan filter; use :meth:`range` when an index applies."""
        return [r for r in self._records.values() if predicate(r)]

    def clear(self) -> None:
        """Drop every record and rebuild empty secondary indexes."""
        self._records.clear()
        for name, fn in self.schema.indexes.items():
            self._indexes[name] = _SortedIndex(name, fn)
