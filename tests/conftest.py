"""Shared fixtures: personas, traces, segments, and a wired system.

Expensive artifacts (simulated traces) are session-scoped; tests must not
mutate them.  Everything is seeded, so the suite is deterministic.
"""

from __future__ import annotations

import base64
import os

import numpy as np
import pytest

from repro.conformance.sim import assert_replica_matches  # noqa: F401  (tests import it here)
from repro.core import SensorSafeSystem
from repro.datastore.wavesegment import WaveSegment
from repro.exceptions import CorruptRecordError
from repro.net.http import Router
from repro.net.transport import Network
from repro.rules.engine import decode_release
from repro.server.broker_service import BrokerService
from repro.sensors.personas import make_persona
from repro.sensors.simulator import SimulatorConfig, TraceSimulator
from repro.storage.wal import HEADER_SIZE, _HEADER, decode_frame
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


def read_wal_frames(path: str) -> list:
    """``(lsn, frame_bytes, chain_prev)`` of every intact frame of a WAL file.

    The raw-bytes sibling of :func:`repro.storage.wal.scan_wal`, in the
    triples :func:`repro.storage.replication.encode_ship` takes: frames are
    CRC- and chain-checked while scanning, and extraction stops at the
    first torn or suspect byte.
    """
    frames = []
    if not os.path.exists(path):
        return frames
    with open(path, "rb") as fh:
        data = fh.read()
    offset = chain_prev = 0
    while offset + HEADER_SIZE <= len(data):
        end = offset + HEADER_SIZE + _HEADER.unpack_from(data, offset)[0]
        if end > len(data):
            break  # torn tail
        try:
            lsn, chain, _payload = decode_frame(data[offset:end], chain_prev=chain_prev)
        except CorruptRecordError:
            break
        frames.append((lsn, data[offset:end], chain_prev))
        chain_prev, offset = chain, end
    return frames


def disk_holds(directory, values) -> list:
    """The disk referee: ``(path, form)`` for every file under ``directory``
    (quarantine included) that holds the run of samples ``values``.

    A store keeps samples in two forms: as raw ``le-f64`` bytes (a journaled
    segment or batch record's part) and as base64 text (snapshot rows,
    quarantined rows, a migrated record).  Each file is searched for the
    run's bytes, and for its base64 at each of the three byte alignments the
    run can start at inside a longer blob.  Give it a run of a few samples
    or more: a short one can match by chance.
    """
    run = np.ascontiguousarray(values, dtype="<f8").tobytes()
    armoured = [base64.b64encode(run[skip:][: (len(run) - skip) // 3 * 3]) for skip in range(3)]
    found = []
    for root, _dirs, names in sorted(os.walk(directory)):
        for name in sorted(names):
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                data = fh.read()
            found += [(path, "le-f64")] if run in data else []
            found += [(path, "base64")] if any(a in data for a in armoured) else []
    return found


def broker_pushes(network, host: str = "broker") -> list:
    """A stand-in broker at ``host``: the list returned collects each
    profile a store paired with it (``pair_broker(host, key)``) pushes."""
    pushed = []
    router = Router()
    router.add("POST", "/api/sync", lambda request: pushed.append(request.body["Profile"]) or {})
    network.register_host(host, router)
    return pushed


#: Keys no body that crosses the broker may carry: samples and credentials.
TAPPED_KEYS = frozenset({"Values", "Samples", "Salt", "PasswordHash"})
#: The web UI's data proxy (and its page), with every call it forwards,
#: carries a release through the broker on purpose: benchmark C2 contrasts
#: it with the direct path programmatic consumers take.
TAP_ALLOWED = frozenset({"/api/data"})


def carried_payload(body, where: str = "body"):
    """Where ``body`` carries raw bytes, an array, or a tapped key; or None."""
    if isinstance(body, (bytes, bytearray, memoryview, np.ndarray)):
        return where
    items = body.items() if isinstance(body, dict) else (
        enumerate(body) if isinstance(body, (list, tuple)) else ())
    for key, value in items:
        if key in TAPPED_KEYS:
            return f"{where}.{key}"
        found = carried_payload(value, f"{where}.{key}")
        if found is not None:
            return found
    return None


def _broker_routes(network, host: str) -> dict:
    """The routes of ``host`` if a broker serves them, else ``{}``."""
    router = network._hosts.get(host)
    routes = router._routes if router is not None else {}
    first = next(iter(routes.values()), None)
    return routes if isinstance(getattr(first, "__self__", None), BrokerService) else {}


def _tap_allows(routes: dict, method: str, path: str) -> bool:
    """Is ``path`` on a broker an allowed route, or a page that renders one?"""
    handler = routes.get(f"{method} {path}")
    declared = getattr(getattr(handler, "renders", handler), "route", None)
    return declared is not None and declared.path in TAP_ALLOWED


@pytest.fixture(autouse=True)
def broker_tap(monkeypatch):
    """The honest-but-curious referee, on every test: no body sent to, sent
    by or answered to a broker carries an owner's samples or credentials
    (§5.2: the broker brokers; data moves between stores and consumers).

    Hits are collected, not raised, so a test that expects an error cannot
    swallow one; the test fails at teardown with every hit listed.
    """
    hits, allowed = [], []
    request = Network.request

    def tapped(network, method, url, body=None, *, client="anonymous", headers=None):
        host, path = network.parse_url(url)[1:]
        routes = _broker_routes(network, host)
        watched = not allowed and bool(routes or _broker_routes(network, client))
        allows = watched and _tap_allows(routes, method, path)
        if allows:
            allowed.append(path)
        try:
            response = request(network, method, url, body, client=client, headers=headers)
        finally:
            if allows:
                allowed.pop()
        if watched and not allows:
            for part, payload in (("request", body), ("response", response.body)):
                found = carried_payload(payload)
                if found is not None:
                    hits.append(f"{method} {host}{path} from {client}: {part} {found}")
        return response

    monkeypatch.setattr(Network, "request", tapped)
    yield hits
    assert not hits, "payload crossed the broker:\n" + "\n".join(hits)


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
