"""The transport's wire form: canonical JSON with its binary parts beside it.

A body's bytes are its canonical JSON with every ``bytes`` leaf replaced
by ``{"$bytes": n}``, then — only when there is such a leaf — one ``\\n``
and the leaves themselves in document (sorted-key) order.  Canonical JSON
escapes control characters, so the first ``\\n`` is the separator, and a
body with no ``bytes`` leaf encodes to ``canonical_dumps(body).encode()``.
:func:`size` is what :meth:`~repro.net.transport.Network.request` counts.
"""

from __future__ import annotations

import json

from repro.exceptions import SchemaError
from repro.util import jsonutil

_PART = "$bytes"
#: Canonical JSON puts ``{`` or ``,`` before a key's opening quote and a
#: backslash before a quote inside a string, so these match keys only.
_PART_KEYS = ('{"%s":' % _PART, ',"%s":' % _PART)


def _split(body) -> tuple:
    """``(head, parts)``: the placeholder JSON and the leaves it stands for.
    :class:`~repro.exceptions.SchemaError` for what :func:`decode` could not
    give back: a non-finite float, a ``bytearray``/``memoryview``/array
    leaf, a key spelled like the placeholder."""
    parts: list = []

    def placeholder(leaf):
        if not isinstance(leaf, bytes):
            raise TypeError(f"{type(leaf).__name__} is neither JSON nor bytes")
        parts.append(leaf)
        return {_PART: len(leaf)}

    head = jsonutil.canonical_dumps(body, default=placeholder)
    if sum(map(head.count, _PART_KEYS)) != len(parts):
        raise SchemaError(f"wire body: the key {_PART!r} is reserved for binary parts")
    return head, parts


def encode(body) -> bytes:
    """The bytes ``body`` travels as."""
    head, parts = _split(body)
    return b"".join([head.encode("ascii"), b"\n" if parts else b"", *parts])


def sizes(body) -> tuple:
    """``(len(encode(body)), how many of those bytes are parts)``, unbuilt."""
    head, parts = _split(body)
    part_bytes = sum(map(len, parts))
    return len(head) + bool(parts) + part_bytes, part_bytes


def size(body) -> int:
    """``len(encode(body))`` without building it."""
    return sizes(body)[0]


#: A head that holds neither the placeholder's key nor an escape that could
#: spell it has no part to find: one shared decoder parses it, hookless.
_PLAIN = json.JSONDecoder()
_PART_TOKEN = b'"%s"' % _PART.encode("ascii")


def decode(data: bytes):
    """The body :func:`encode` was given; :class:`~repro.exceptions.SchemaError`
    unless the placeholders consume the part section exactly."""
    head, separator, tail = bytes(data).partition(b"\n")
    ends = [0]  # where each part seen so far ends in ``tail``

    def part(obj: dict):
        if _PART not in obj:
            return obj
        n = obj[_PART]
        if len(obj) != 1 or type(n) is not int or n < 0 or ends[-1] + n > len(tail):
            raise SchemaError(f"wire body: bad part placeholder {obj!r} at byte {ends[-1]}")
        ends.append(ends[-1] + n)
        return tail[ends[-2] : ends[-1]]

    hooked = _PART_TOKEN in head or b"\\u" in head
    decoder = json.JSONDecoder(object_hook=part) if hooked else _PLAIN
    try:
        body = decoder.decode(head.decode("ascii"))
    except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError
        raise SchemaError(f"wire body: malformed JSON: {exc}") from exc
    if ends[-1] != len(tail) or bool(separator) != (len(ends) > 1):
        raise SchemaError(f"wire body: {len(ends) - 1} parts end at byte {ends[-1]} of {len(tail)}")
    return body
