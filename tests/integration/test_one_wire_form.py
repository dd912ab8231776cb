"""Tier-1 guard: one producer and one parser per write-path frame.

An upload travels as the frame ``repro.sensors.packets.encode_upload``
builds and a ship as the one ``repro.storage.replication.encode_ship``
builds; nothing else under ``src/`` or ``benchmarks/`` may spell the
members of either by hand, and nothing may hex-encode bytes for the wire
again.  A second writer of ``"Packets"`` or ``"Stream"`` would be a second
wire form — a list fallback, a negotiation, a bench that measures a body
the phone never sends — so it fails ``pytest`` here, not a review.
(``benchmarks/ledger/`` drives the public API only and is the benchmark's
own to edit; it is not scanned.)
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SCANNED = ("src", "benchmarks")
NOT_SCANNED = "benchmarks/ledger/"

UPLOAD_FRAME = "src/repro/sensors/packets.py"
SHIP_FRAME = "src/repro/storage/replication.py"
#: member name -> the one file that may spell it
MEMBERS = {"Packets": UPLOAD_FRAME, "Frames": SHIP_FRAME, "Stream": SHIP_FRAME}


def _modules():
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            name = path.relative_to(ROOT).as_posix()
            if not name.startswith(NOT_SCANNED):
                yield name, ast.parse(path.read_text(encoding="utf-8"))


def _spellings(tree):
    """``(lineno, what)`` for every frame member spelled as a string and
    every hex round trip of bytes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and node.value in MEMBERS:
            yield node.lineno, node.value
        elif isinstance(node, ast.Attribute) and node.attr in ("hex", "fromhex"):
            yield node.lineno, f".{node.attr}"


def test_each_frame_member_is_spelled_in_one_file():
    offenders = [
        f"{name}:{lineno} {what!r}"
        for name, tree in _modules()
        for lineno, what in _spellings(tree)
        if MEMBERS.get(what) != name
    ]
    assert offenders == [], (
        "build and read upload bodies through encode_upload/decode_upload and ship "
        "bodies through encode_ship/decode_ship: " + "; ".join(offenders)
    )


def test_the_guard_sees_what_it_guards():
    """The walk is not vacuous: each frame's own module trips it."""
    modules = dict(_modules())
    assert {what for _, what in _spellings(modules[UPLOAD_FRAME])} == {"Packets"}
    assert {what for _, what in _spellings(modules[SHIP_FRAME])} == {"Frames", "Stream"}
    assert len(modules) > 100 and not any(name.startswith(NOT_SCANNED) for name in modules)
