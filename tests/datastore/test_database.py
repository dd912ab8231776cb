"""Tests for the embedded record table."""

import pytest

from repro.datastore.database import Table, TableSchema
from repro.exceptions import DuplicateKeyError, MissingRecordError, StorageError


def make_table():
    return Table(
        TableSchema("people", key=lambda r: r["id"], indexes={"age": lambda r: r["age"]})
    )


class TestCrud:
    def test_insert_get(self):
        table = make_table()
        table.insert({"id": 1, "age": 30})
        assert table.get(1)["age"] == 30
        assert 1 in table
        assert len(table) == 1

    def test_duplicate_key_rejected(self):
        table = make_table()
        table.insert({"id": 1, "age": 30})
        with pytest.raises(DuplicateKeyError):
            table.insert({"id": 1, "age": 31})

    def test_get_missing_raises_find_returns_none(self):
        table = make_table()
        with pytest.raises(MissingRecordError):
            table.get(99)
        assert table.find(99) is None

    def test_delete_removes_from_indexes(self):
        table = make_table()
        table.insert({"id": 1, "age": 30})
        table.delete(1)
        assert list(table.range("age", 0, 100)) == []
        with pytest.raises(MissingRecordError):
            table.delete(1)

    def test_clear(self):
        table = make_table()
        table.insert({"id": 1, "age": 30})
        table.clear()
        assert len(table) == 0
        assert list(table.range("age", 0, 100)) == []


class TestIndexes:
    def test_range_is_sorted_and_bounded(self):
        table = make_table()
        for i, age in enumerate([50, 10, 30, 20, 40]):
            table.insert({"id": i, "age": age})
        ages = [r["age"] for r in table.range("age", 15, 45)]
        assert ages == [20, 30, 40]

    def test_open_ended_ranges(self):
        table = make_table()
        for i, age in enumerate([5, 15, 25]):
            table.insert({"id": i, "age": age})
        assert [r["age"] for r in table.range("age")] == [5, 15, 25]
        assert [r["age"] for r in table.range("age", lo=10)] == [15, 25]
        assert [r["age"] for r in table.range("age", hi=20)] == [5, 15]

    def test_unknown_index(self):
        table = make_table()
        with pytest.raises(StorageError):
            list(table.range("height", 0, 10))

    def test_duplicate_index_keys_ok(self):
        table = make_table()
        table.insert({"id": 1, "age": 30})
        table.insert({"id": 2, "age": 30})
        assert len(list(table.range("age", 30, 31))) == 2

    def test_select_full_scan(self):
        table = make_table()
        for i in range(5):
            table.insert({"id": i, "age": i * 10})
        assert len(table.select(lambda r: r["age"] >= 20)) == 3
