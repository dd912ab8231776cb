"""Tests for canonical JSON helpers."""

import math

import pytest

from repro.exceptions import SchemaError
from repro.util.jsonutil import (
    canonical_dumps,
    dumps,
    loads,
    require_keys,
    require_type,
)


class TestDumps:
    def test_roundtrip(self):
        obj = {"b": [1, 2], "a": {"x": None}}
        assert loads(dumps(obj)) == obj

    def test_rejects_nan(self):
        with pytest.raises(SchemaError):
            dumps({"x": math.nan})

    def test_rejects_unserializable(self):
        with pytest.raises(SchemaError):
            dumps({"x": object()})


class TestCanonical:
    def test_key_order_is_stable(self):
        assert canonical_dumps({"b": 1, "a": 2}) == canonical_dumps({"a": 2, "b": 1})

    def test_compact(self):
        assert " " not in canonical_dumps({"a": [1, 2]})

    @pytest.mark.parametrize("leaf", [b"", b"\x00\xff", bytearray(b"ab"), memoryview(b"ab")])
    def test_refuses_bytes(self, leaf):
        """It frames WAL records and feeds content hashes: binary never
        gets in by default.  Only ``repro.net.wire`` passes a ``default``."""
        with pytest.raises(SchemaError):
            canonical_dumps({"Op": "segment", "Data": {"Blob": leaf}})
        with pytest.raises(SchemaError):
            dumps([leaf])
        assert canonical_dumps({"Blob": leaf}, default=len) == '{"Blob":%d}' % len(leaf)


class TestLoads:
    def test_malformed_raises_schema_error(self):
        with pytest.raises(SchemaError):
            loads("{not json")


class TestRequire:
    def test_require_keys_passes(self):
        require_keys({"a": 1, "b": 2}, ("a", "b"))

    def test_require_keys_missing(self):
        with pytest.raises(SchemaError, match="missing"):
            require_keys({"a": 1}, ("a", "b"), where="thing")

    def test_require_keys_non_dict(self):
        with pytest.raises(SchemaError):
            require_keys([1], ("a",))

    def test_require_type(self):
        assert require_type(5, int) == 5
        with pytest.raises(SchemaError):
            require_type("5", int, where="count")
