"""JSON helpers: canonical encoding and strict decoding.

SensorSafe serializes privacy rules (Fig. 4) and wave segments (Fig. 5) as
JSON.  Canonical encoding (sorted keys, no whitespace variance) makes
byte-level equality meaningful, which the broker's rule-sync protocol uses
to detect changed rules cheaply.
"""

from __future__ import annotations

import json
from typing import Any

from repro.exceptions import SchemaError


def dumps(obj: Any, *, indent: int | None = None) -> str:
    """Serialize to JSON; raises :class:`SchemaError` on unserializable input."""
    try:
        return json.dumps(obj, indent=indent, allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"object is not JSON-serializable: {exc}") from exc


def canonical_dumps(obj: Any, *, default=None) -> str:
    """Serialize to canonical JSON: sorted keys, compact separators.
    ``default`` (:func:`json.dumps`'s) is :mod:`repro.net.wire`'s alone:
    without it ``bytes`` is refused, as WAL framing and hashes rely on."""
    try:
        return json.dumps(
            obj, sort_keys=True, separators=(",", ":"), allow_nan=False, default=default
        )
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"object is not JSON-serializable: {exc}") from exc


def loads(text: str) -> Any:
    """Parse JSON; raises :class:`SchemaError` on malformed input."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed JSON: {exc}") from exc


def require_keys(obj: dict, keys: tuple, *, where: str = "object") -> None:
    """Assert that ``obj`` is a dict containing every key in ``keys``."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise SchemaError(f"{where}: missing required keys {missing}")


def require_type(value: Any, types, *, where: str = "value") -> Any:
    """Assert a value's type and return it (for chaining)."""
    if not isinstance(value, types):
        names = types.__name__ if isinstance(types, type) else "/".join(t.__name__ for t in types)
        raise SchemaError(f"{where}: expected {names}, got {type(value).__name__}")
    return value
