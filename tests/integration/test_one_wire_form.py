"""Tier-1 guard: one producer and one parser per wire frame.

An upload travels as the frame ``repro.sensors.packets.encode_upload``
builds, a ship as the one ``repro.storage.replication.encode_ship`` builds
and a release as the one ``repro.rules.engine.encode_release`` builds;
nothing else under ``src/`` or ``benchmarks/`` may spell the members of
any of them by hand, and nothing may hex-encode bytes for the wire again.
A second writer of ``"Captures"``, ``"Streams"``, ``"Packets"``,
``"Stream"``, ``"Headers"`` or ``"Pieces"`` would be a second wire form —
a list fallback, a negotiation, a bench that measures a body the phone
never sends or a consumer never receives — so it fails ``pytest`` here,
not a review.
(``benchmarks/ledger/`` drives the public API only and is the benchmark's
own to edit; it is not scanned.)

Since a frame's samples ride beside its JSON as ``bytes`` the same holds
for text armour: base64 is the *stored* form and ``repro.datastore.codec``
is the one module under ``src/`` that may reach for it, and the part
placeholder ``"$bytes"`` is ``repro.net.wire``'s alone to spell.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SCANNED = ("src", "benchmarks")
NOT_SCANNED = "benchmarks/ledger/"

UPLOAD_FRAME = "src/repro/sensors/packets.py"
SHIP_FRAME = "src/repro/storage/replication.py"
RELEASE_FRAME = "src/repro/rules/engine.py"
#: member name -> the one file that may spell it
MEMBERS = {
    "Captures": UPLOAD_FRAME,
    "Streams": UPLOAD_FRAME,
    "Packets": UPLOAD_FRAME,
    "Frames": SHIP_FRAME,
    "Stream": SHIP_FRAME,
    "Headers": RELEASE_FRAME,
    "Pieces": RELEASE_FRAME,
}

STORED_FORM = "src/repro/datastore/codec.py"
WIRE_FORM = "src/repro/net/wire.py"
_ARMOUR_MODULES = ("base64", "binascii")
_ARMOUR_NAMES = ("b64encode", "b64decode", "a2b_base64")


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


def _named(node):
    """Every module, variable or attribute name one node mentions."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [node.module or "", *(alias.name for alias in node.names)]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return []


def _armour(tree):
    """``(lineno, what, the one file that may)`` for every reach for base64
    and every spelling of the wire's part placeholder."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and node.value == "$bytes":
            yield node.lineno, "$bytes", WIRE_FORM
        for name in _named(node):
            if name.split(".")[0] in _ARMOUR_MODULES or name in _ARMOUR_NAMES:
                yield node.lineno, name, STORED_FORM


def test_base64_is_the_stored_form_and_the_placeholder_is_the_wire_s():
    offenders = [
        f"{name}:{lineno} {what!r}"
        for name, tree in _modules()
        if name.startswith("src/")
        for lineno, what, owner in _armour(tree)
        if owner != name
    ]
    assert offenders == [], (
        "a frame's blob travels as bytes (ENCODING_RAW, repro.net.wire); only "
        "the codec's stored form is base64: " + "; ".join(offenders)
    )


def test_the_armour_guard_fails_on_the_parent_s_ship():
    """The three lines ``storage/replication.py`` held at 19806b9."""
    parent = ast.parse(
        "import base64\n"
        "stream = base64.b64encode(stream).decode('ascii')\n"
        "stream = base64.b64decode(body['Stream'], validate=True)\n"
    )
    assert sorted((lineno, what) for lineno, what, _ in _armour(parent)) == [
        (1, "base64"), (2, "b64encode"), (2, "base64"), (3, "b64decode"), (3, "base64"),
    ]
    aliased = ast.parse("from binascii import a2b_base64 as f")
    assert {what for _, what, _ in _armour(aliased)} == {"binascii", "a2b_base64"}
    modules = dict(_modules())
    assert {what for _, what, _ in _armour(modules[STORED_FORM])} == {
        "base64", "b64encode", "b64decode",
    }
    assert {what for _, what, _ in _armour(modules[WIRE_FORM])} == {"$bytes"}
    assert list(_armour(modules[SHIP_FRAME])) == []


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
    assert {what for _, what in _spellings(modules[UPLOAD_FRAME])} == {
        "Captures", "Streams", "Packets",
    }  # fmt: skip
    assert {what for _, what in _spellings(modules[SHIP_FRAME])} == {"Frames", "Stream"}
    assert {what for _, what in _spellings(modules[RELEASE_FRAME])} == {"Headers", "Pieces"}
    assert len(modules) > 100 and not any(name.startswith(NOT_SCANNED) for name in modules)
