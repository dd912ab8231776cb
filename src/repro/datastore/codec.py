"""Value-blob codec for wave segments.

The paper stores "sequences of data samples from multiple sensor channels
... as Binary Large Objects (blob)" — an array of tuples, one tuple per
sample instant, one element per channel.  We encode the (n_samples,
n_channels) float64 array as little-endian IEEE-754 bytes wrapped in
base64, so a wave segment remains a pure-JSON document (Fig. 5) while
keeping the storage density of a binary blob.

Where a blob travels beside JSON instead of inside it, it needs no text
armour and is ``le-f64``: the same bytes as a ``bytes`` leaf
:mod:`repro.net.wire` carries.  Every wire frame holds it so, and so does
the journal, whose payloads are that wire form
(:mod:`repro.storage.wal`).  Base64 is kept only where a segment must be
a pure JSON document — JSON-lines snapshot rows, a record dump, a resync
bootstrap, a migration batch — and only this module names it.
"""

from __future__ import annotations

import base64
import time

import numpy as np

from repro.exceptions import SchemaError

ENCODING_B64 = "b64le-f64"
ENCODING_RAW = "le-f64"


class CodecStats:
    """Process-wide decode accounting (codec functions have no instance).

    The observability layer surfaces these through gauge callbacks
    (``codec_decode_calls`` / ``codec_decode_seconds``); they count only
    calls and time — never the decoded values themselves.
    """

    __slots__ = ("decode_calls", "decode_seconds")

    def __init__(self) -> None:
        self.decode_calls = 0
        self.decode_seconds = 0.0

    def reset(self) -> None:
        """Zero every counter (benchmarks call this between runs)."""
        self.decode_calls = 0
        self.decode_seconds = 0.0


DECODE_STATS = CodecStats()


def encode_values(values: np.ndarray, encoding: str = ENCODING_B64) -> dict:
    """Encode a (n_samples, n_channels) array into a blob JSON object."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise SchemaError(f"value array must be 2-D (samples x channels), got shape {arr.shape}")
    n_samples, n_channels = arr.shape
    if encoding not in (ENCODING_B64, ENCODING_RAW):
        raise SchemaError(f"unknown blob encoding: {encoding!r}")
    blob = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    if encoding == ENCODING_B64:
        blob = base64.b64encode(blob).decode("ascii")
    return {"Encoding": encoding, "Samples": n_samples, "Channels": n_channels, "Blob": blob}


def decode_values(obj: dict) -> np.ndarray:
    """Decode a blob JSON object back into a (n_samples, n_channels) array."""
    started = time.perf_counter()
    try:
        return _decode_values(obj)
    finally:
        DECODE_STATS.decode_calls += 1
        DECODE_STATS.decode_seconds += time.perf_counter() - started


def decode_frame_values(blob, *, where: str) -> np.ndarray:
    """The flat samples of a wire frame's ``Values``: every frame parser
    reads its blob here, so all refuse the same things — anything but one
    ``le-f64`` blob of one channel, ``bytes`` of exactly the declared length."""
    form = (blob.get("Encoding"), blob.get("Channels")) if isinstance(blob, dict) else None
    if form != (ENCODING_RAW, 1):
        raise SchemaError(f"{where}: Values must be one {ENCODING_RAW} blob of one channel")
    return decode_values(blob).reshape(-1)


def _decode_values(obj: dict) -> np.ndarray:
    try:
        encoding = obj["Encoding"]
        n_samples = int(obj["Samples"])
        n_channels = int(obj["Channels"])
        blob = obj["Blob"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed value blob: {obj!r}") from exc
    if n_samples < 0 or n_channels <= 0:
        raise SchemaError(f"bad blob dimensions: {n_samples}x{n_channels}")
    if encoding not in (ENCODING_B64, ENCODING_RAW):
        raise SchemaError(f"unknown blob encoding: {encoding!r}")
    if encoding == ENCODING_RAW and not isinstance(blob, bytes):
        raise SchemaError(f"{ENCODING_RAW} blob must be bytes, got {type(blob).__name__}")
    try:
        raw = blob if encoding == ENCODING_RAW else base64.b64decode(blob, validate=True)
    except Exception as exc:  # binascii.Error subclasses vary
        raise SchemaError(f"undecodable base64 blob: {exc}") from exc
    expected = n_samples * n_channels * 8
    if len(raw) != expected:
        raise SchemaError(f"blob length {len(raw)} != expected {expected} bytes")
    arr = np.ndarray((n_samples, n_channels), "<f8", buffer=raw)
    # A journaled or wire blob is read in place: one read-only array over
    # the part's bytes (a reshaped 1-D view would keep two alive).
    return arr if encoding == ENCODING_RAW else arr.astype(np.float64)
