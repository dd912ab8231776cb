"""A cut of a segment is built once, by construction, and its id derived.

``slice_time``, ``select_channels``, ``released_piece``, ``bare`` and the
engine's non-uniform shaping build their result through one private
constructor that re-runs none of ``__post_init__``'s checks and hashes no
``segment_id`` until one is read.  These tests hold every such cut to
being exactly the segment the public constructor would have built from
its fields — read-only float64 2-D values, the same id — hold a cold
``/api/query`` to building none through ``__post_init__`` and hashing
none at the store, and hold the consumer's decoded pieces to deriving the
very id the store's piece has, now that the release row carries none.
"""

import dataclasses
import random
from unittest import mock

import numpy as np
import pytest

from repro.conformance.generators import TrialGenerator
from repro.datastore import wavesegment
from repro.datastore.query import DataQuery
from repro.datastore.wavesegment import TIME_CHANNEL, WaveSegment
from repro.net.transport import Network
from repro.rules.engine import _shape_segment, decode_release, encode_release
from repro.rules.model import ALLOW, DENY, Rule, abstraction
from repro.server.datastore_service import DataStoreService
from repro.util import idgen
from repro.util.timeutil import Interval, TimeCondition

from tests.conftest import MONDAY, make_segment

_FIELDS = [f.name for f in dataclasses.fields(WaveSegment) if f.name != "segment_id"]
_TIME_LEVELS = ("milliseconds", "minute", "hour")


def _corpus(seed: int, trials: int = 40) -> list:
    """The conformance generator's segments: uniform and non-uniform."""
    generator = TrialGenerator(seed)
    return [s for i in range(trials) for s in generator.trial(i).segments]


def _assert_built_right(cut: WaveSegment) -> None:
    """``cut`` is what ``WaveSegment(**its fields)`` builds, id included."""
    derived = "segment_id" not in vars(cut)
    rebuilt = WaveSegment(**{name: getattr(cut, name) for name in _FIELDS})
    values = cut.values
    assert type(values) is np.ndarray and values.dtype == np.float64 and values.ndim == 2
    assert values.shape == (cut.n_samples, len(cut.channels)) and cut.n_samples > 0
    assert not values.flags.writeable
    assert np.array_equal(values, rebuilt.values)
    for name in ("contributor", "channels", "start_ms", "interval_ms", "location", "context"):
        assert getattr(cut, name) == getattr(rebuilt, name)
    assert cut.segment_id == rebuilt.segment_id
    if derived:  # read once, then a plain attribute
        assert vars(cut)["segment_id"] == rebuilt.segment_id


def _cuts(segment: WaveSegment, rng: random.Random) -> list:
    """Every kind of cut of ``segment`` over a few random windows and
    channel subsets (the engine's shaping at each time level included)."""
    lo, hi = segment.start_ms, segment.end_ms
    out = [segment.bare()]
    for _ in range(6):
        a, b = sorted(rng.randint(lo - 1000, hi + 1000) for _ in range(2))
        window = Interval(a, b + 1)
        names = rng.sample(segment.channels, rng.randint(1, len(segment.channels)))
        out.append(segment.slice_time(window))
        out.append(segment.select_channels(names))
        if segment.is_uniform:
            out.append(segment.released_piece(window, names))
            out.append(segment.released_piece(window, names, rng.choice([0, a, hi])))
        for level in _TIME_LEVELS:
            timestamp = None if level == "milliseconds" else (window.start // 60_000) * 60_000
            out.append(_shape_segment(segment, window, names, level, timestamp))
        sliced = segment.slice_time(window)
        if sliced is not None:
            out.append(sliced.bare(start_ms=0))
    return [cut for cut in out if cut is not None]


@pytest.mark.parametrize("seed", [3, 17])
def test_every_cut_is_the_segment_its_fields_build(seed):
    rng = random.Random(seed)
    segments = _corpus(seed)
    assert any(not s.is_uniform for s in segments) and any(s.is_uniform for s in segments)
    checked = 0
    for segment in segments:
        for cut in _cuts(segment, rng):
            _assert_built_right(cut)
            checked += 1
    assert checked > 1000


def test_a_cut_hashes_no_id_until_one_is_read():
    segment = make_segment(channels=("ECG", "Respiration"), n=10)
    with mock.patch.object(wavesegment, "stable_id", wraps=idgen.stable_id) as hashed:
        cuts = [
            segment.slice_time(Interval(MONDAY + 2000, MONDAY + 6000)),
            segment.select_channels(["ECG"]),
            segment.released_piece(Interval(MONDAY, MONDAY + 3000), ["Respiration"], 0),
            segment.bare(),
        ]
        assert hashed.call_count == 0
        assert all("segment_id" not in vars(cut) for cut in cuts)
        ids = [cut.segment_id for cut in cuts] + [cut.segment_id for cut in cuts]
        assert hashed.call_count == len(cuts)
    assert ids[: len(cuts)] == ids[len(cuts):]
    # Same owner, format, start and length: the bare waveform keeps the id.
    assert len(set(ids)) == len(cuts) and ids.index(segment.segment_id) == 3


def test_a_cut_keeps_its_parent_s_where_and_context_and_bare_drops_them():
    segment = make_segment(channels=(TIME_CHANNEL, "ECG"), interval_ms=None,
                           values=np.column_stack([MONDAY + 7 * np.arange(5.0) ** 2, np.ones(5)]))
    cut = segment.slice_time(Interval(MONDAY + 5, MONDAY + 200))
    assert cut.location == segment.location and cut.context == segment.context
    assert cut.start_ms == MONDAY + 7 and cut.n_samples == 4
    bare = cut.bare()
    assert bare.location is None and bare.context == {}
    assert bare.context is not cut.bare().context  # each bare cut has its own


# ----------------------------------------------------------------------
# The store's read path
# ----------------------------------------------------------------------

HOST = "cut-store"


def _service():
    """alice's store: uniform and non-uniform segments over two channels,
    a grant, a one-minute unscoped deny inside the window and a
    Respiration deny, so a query slices, projects and splits pieces."""
    service = DataStoreService(HOST, Network(), seed=0)
    service.register_contributor("alice")
    key = service.register_consumer("bob")
    for rule in (
        Rule(consumers=("bob",), action=ALLOW, rule_id="r-allow"),
        Rule(
            consumers=("bob",),
            time=TimeCondition(intervals=(Interval(MONDAY + 20_000, MONDAY + 25_000),)),
            action=DENY,
            rule_id="r-gap",
        ),
        Rule(consumers=("bob",), sensors=("Respiration",), action=DENY, rule_id="r-resp"),
        Rule(consumers=("bob",), contexts=("Still",), action=abstraction(Time="minute"),
             rule_id="r-minute"),
    ):
        service.rules.add("alice", rule)
    for i in range(3):
        service.store.add_segment(
            make_segment(channels=("ECG", "Respiration"), n=20, start_ms=MONDAY + i * 20_000)
        )
    times = MONDAY + 70_000 + 900 * np.arange(12.0)
    service.store.add_segment(
        make_segment(channels=(TIME_CHANNEL, "ECG"), interval_ms=None,
                     values=np.column_stack([times, np.arange(12.0)]))
    )
    service.store.flush()
    return service, key


WINDOW = DataQuery(time_range=Interval(MONDAY + 5_000, MONDAY + 80_000))


def _query(service, key):
    return service.network.request(
        "POST",
        f"https://{HOST}/api/query",
        {"Contributor": "alice", "Query": WINDOW.to_json(), "ApiKey": key},
    )


def test_a_cold_query_builds_no_piece_through_post_init_and_hashes_no_id():
    service, key = _service()
    original = WaveSegment.__post_init__
    with mock.patch.object(
        WaveSegment, "__post_init__", autospec=True, side_effect=original
    ) as checked, mock.patch.object(
        wavesegment, "stable_id", wraps=idgen.stable_id
    ) as hashed, mock.patch(
        "repro.rules.engine.stable_id", wraps=idgen.stable_id
    ) as hashed_at_encode:
        response = _query(service, key)
    assert response.status == 200
    assert checked.call_count == 0
    assert hashed.call_count == hashed_at_encode.call_count == 0
    pieces = decode_release(response.body["Released"])
    assert len([p for p in pieces if p.segment is not None]) == 3
    assert any(not p.segment.is_uniform for p in pieces if p.segment is not None)


def test_every_decoded_piece_derives_the_served_piece_s_id():
    service, key = _service()
    response = _query(service, key)
    frame = response.body["Released"]
    assert all(len(row) in (2, 4) for row in frame["Pieces"])
    decoded = decode_release(frame)
    result = service.store.query("alice", WINDOW)
    served = service._engine_for("alice").evaluate("bob", result.segments)
    assert [p.to_json() for p in decoded] == [p.to_json() for p in served]
    assert [p.segment and p.segment.segment_id for p in decoded] == [
        p.segment and p.segment.segment_id for p in served
    ]
    # The frame the served pieces encode to is the frame that was sent.
    assert encode_release(served)["Pieces"] == frame["Pieces"]
