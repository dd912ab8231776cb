"""Tests for the value-blob codec."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from repro.datastore.codec import (
    ENCODING_B64,
    decode_values,
    encode_values,
)
from repro.exceptions import SchemaError


class TestEncode:
    def test_b64_shape_fields(self):
        blob = encode_values(np.zeros((5, 2)))
        assert blob["Encoding"] == ENCODING_B64
        assert blob["Samples"] == 5
        assert blob["Channels"] == 2

    def test_rejects_1d(self):
        with pytest.raises(SchemaError):
            encode_values(np.zeros(5))

    def test_rejects_unknown_encoding(self):
        with pytest.raises(SchemaError):
            encode_values(np.zeros((1, 1)), "utf-16")

    def test_b64_is_denser_than_plain_json(self):
        from repro.util.jsonutil import canonical_dumps

        arr = np.random.default_rng(0).normal(size=(512, 1))
        b64 = len(canonical_dumps(encode_values(arr, ENCODING_B64)))
        plain = len(canonical_dumps(arr.tolist()))
        assert b64 < plain


class TestDecode:
    def test_rejects_missing_fields(self):
        with pytest.raises(SchemaError):
            decode_values({"Encoding": ENCODING_B64})

    def test_rejects_wrong_length_blob(self):
        blob = encode_values(np.zeros((4, 1)))
        blob["Samples"] = 5
        with pytest.raises(SchemaError):
            decode_values(blob)

    def test_rejects_invalid_base64(self):
        blob = encode_values(np.zeros((1, 1)))
        blob["Blob"] = "!!!not-base64!!!"
        with pytest.raises(SchemaError):
            decode_values(blob)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(SchemaError):
            decode_values(
                {"Encoding": ENCODING_B64, "Samples": 1, "Channels": 0, "Blob": ""}
            )


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


class TestRoundtrip:
    @given(
        arrays(
            dtype=np.float64,
            shape=st.tuples(
                st.integers(min_value=1, max_value=40),
                st.integers(min_value=1, max_value=4),
            ),
            elements=finite,
        )
    )
    def test_b64_roundtrip_exact(self, arr):
        out = decode_values(encode_values(arr, ENCODING_B64))
        assert out.shape == arr.shape
        assert np.array_equal(out, arr)
