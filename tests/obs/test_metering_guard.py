"""Tier-1 guard: no component decides what "telemetry off" means.

``repro.obs`` decides it once: a disabled hub hands out inert instruments
and the no-op span, and a component built without a hub meters into the
shared disabled one.  So outside ``repro/obs`` no code reads a hub's
``enabled`` and no code null-checks a hub or an instrument before using
it.  Fifteen modules once each resolved ``obs if obs is not None and
obs.enabled else None`` and guarded every counter behind it; a new one
fails ``pytest`` here.  (``MergePolicy.enabled`` is not a hub.)
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Names and attributes that hold an observability hub.
HUBS = ("obs", "_obs")

#: Attribute prefixes of bound instruments.
INSTRUMENTS = ("_c_", "_h_")


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC).as_posix()
        if not name.startswith("obs/"):
            yield name, ast.parse(path.read_text(encoding="utf-8"))


def _is_hub(node) -> bool:
    return (isinstance(node, ast.Name) and node.id in HUBS) or (
        isinstance(node, ast.Attribute) and node.attr in HUBS
    )


def _is_self_attr(node, test) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and test(node.attr)
    )


def _guarded(node) -> bool:
    """``self.obs``, ``self._obs``, ``self._c_*`` or ``self._h_*``."""
    return _is_self_attr(node, lambda attr: attr in HUBS or attr.startswith(INSTRUMENTS))


def _offences(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "enabled" and _is_hub(node.value):
            yield node.lineno, "reads a hub's .enabled"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value == "enabled"
        ):
            yield node.lineno, 'calls getattr(..., "enabled")'
        elif (
            isinstance(node, ast.Compare)
            and _guarded(node.left)
            and all(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
            and all(
                isinstance(c, ast.Constant) and c.value is None for c in node.comparators
            )
        ):
            yield node.lineno, f"null-checks self.{node.left.attr}"


def test_no_component_decides_what_off_means():
    offenders = [
        f"{name}:{lineno} {what}"
        for name, tree in _modules()
        for lineno, what in _offences(tree)
    ]
    assert offenders == [], (
        "meter unconditionally; a disabled hub's instruments are inert: "
        + "; ".join(offenders)
    )


def test_the_guard_sees_every_form_it_forbids():
    source = (
        "self.obs = obs if obs is not None and obs.enabled else None\n"
        "x = getattr(obs, 'enabled', False)\n"
        "if self._c_hits is not None: pass\n"
        "if self._obs is None: pass\n"
        "if self.network.obs.enabled: pass\n"
        "if self.policy.enabled: pass\n"
    )
    found = [what for _, what in _offences(ast.parse(source))]
    assert sorted(found) == sorted([
        "reads a hub's .enabled",
        'calls getattr(..., "enabled")',
        "null-checks self._c_hits",
        "null-checks self._obs",
        "reads a hub's .enabled",
    ])
