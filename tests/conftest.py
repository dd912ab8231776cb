"""Shared fixtures: personas, traces, segments, and a wired system.

Expensive artifacts (simulated traces) are session-scoped; tests must not
mutate them.  Everything is seeded, so the suite is deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SensorSafeSystem
from repro.datastore.wavesegment import WaveSegment
from repro.rules.engine import decode_release
from repro.sensors.personas import make_persona
from repro.sensors.simulator import SimulatorConfig, TraceSimulator
from repro.util.geo import LatLon
from repro.util.timeutil import timestamp_ms

def pytest_addoption(parser):
    parser.addoption(
        "--slow",
        action="store_true",
        default=False,
        help="also run tests marked slow (long conformance sweeps)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--slow"):
        return
    skip = pytest.mark.skip(reason="slow test: pass --slow to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


#: Monday, Feb 7 2011 UTC — the paper's own era; all fixture traces start here.
MONDAY = timestamp_ms(2011, 2, 7)
SATURDAY = timestamp_ms(2011, 2, 12)

UCLA = LatLon(34.0689, -118.4452)


def make_segment(
    *,
    contributor: str = "alice",
    channels: tuple = ("ECG",),
    start_ms: int = MONDAY,
    n: int = 16,
    interval_ms: int = 1000,
    location: LatLon = UCLA,
    context: dict = None,
    values: np.ndarray = None,
) -> WaveSegment:
    """A small, valid wave segment for unit tests."""
    if values is None:
        values = np.arange(n * len(channels), dtype=float).reshape(n, len(channels))
    if context is None:
        context = {
            "Activity": "Still",
            "Stress": "NotStressed",
            "Conversation": "NotConversation",
            "Smoking": "NotSmoking",
        }
    return WaveSegment(
        contributor=contributor,
        channels=channels,
        start_ms=start_ms,
        interval_ms=interval_ms,
        values=values,
        location=location,
        context=context,
    )


def released_pieces(body: dict) -> list:
    """A consumer ``/api/query`` response body's pieces, each as its
    ``ReleasedSegment.to_json()``, read through the one frame parser."""
    return [piece.to_json() for piece in decode_release(body["Released"])]


@pytest.fixture(scope="session")
def alice_persona():
    return make_persona("alice", smoker=True, stress_prob=0.3)


@pytest.fixture(scope="session")
def weekday_trace(alice_persona):
    """One simulated weekday at reduced rate (kept small for speed)."""
    sim = TraceSimulator(alice_persona, SimulatorConfig(rate_scale=0.2), seed=11)
    return sim.run(MONDAY, days=1)


@pytest.fixture()
def system():
    """A fresh broker + network per test."""
    return SensorSafeSystem(seed=7)
