"""Property-based invariants for the storage pipeline.

Complements ``test_properties.py`` (rule-engine invariants) with the
storage-side contracts:

* merge/compact conservation — however the optimizer groups packets, the
  concatenated per-channel sample sequence is unchanged;
* compaction idempotence — compacting twice equals compacting once;
* slicing partitions — slicing a segment at arbitrary cut points and
  concatenating the pieces reproduces the original samples;
* slicing by index arithmetic — ``slice_time`` on a uniform segment
  selects exactly the samples a timestamp mask would, and
  ``released_piece`` equals the slice → project → re-anchor → strip
  bare chain it replaces;
* rule JSON round-trips — parser(serializer(rule)) preserves identity for
  arbitrary generated rules;
* the store's log — ``dump`` ∘ ``install`` is the identity on a store's
  durable state, installing a dump twice changes nothing, and a dump
  restricted to a contributor set is exactly the slice of the full dump
  that ``record_owner`` assigns to it;
* the store's snapshot — ``recover_service`` ∘ ``write_snapshot`` is the
  identity on that dump and on every content fingerprint: what was stored
  is queryable, and cached decisions keyed by it are reachable, after a
  restart from a snapshot.
"""

import tempfile

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.datastore.optimizer import MergePolicy, SegmentOptimizer
from repro.datastore.query import DataQuery
from repro.net.transport import Network
from repro.server.datastore_service import DataStoreService
from repro.storage.durability import write_snapshot
from repro.storage.records import apply, dump, record_owner
from repro.storage.recovery import recover_service
from repro.util import jsonutil
from repro.datastore.wavesegment import segment_from_packet
from repro.rules.model import ALLOW, DENY, Rule, abstraction
from repro.rules.parser import rule_from_json, rule_to_json
from repro.sensors.packets import packetize
from repro.util.geo import BoundingBox, LabeledPlace, LatLon
from repro.util.timeutil import Interval, RepeatedTime, TimeCondition

from tests.conftest import MONDAY, make_segment

LOC = LatLon(34.0, -118.0)


def _stream_values(segments, channel="ECG"):
    ordered = sorted(segments, key=lambda s: s.start_ms)
    return [v for s in ordered for v in s.channel_values(channel)]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=1, max_value=600),
)
def test_ingest_merge_conserves_stream(n_samples, packet_size, max_samples):
    packets = packetize(
        "ECG",
        MONDAY,
        250,
        [float(i) for i in range(n_samples)],
        packet_samples=packet_size,
        location=LOC,
    )
    optimizer = SegmentOptimizer(MergePolicy(max_samples=max_samples))
    out = []
    for packet in packets:
        out.extend(optimizer.add(segment_from_packet("alice", packet)))
    out.extend(optimizer.flush())
    assert _stream_values(out) == [float(i) for i in range(n_samples)]
    # No segment exceeds the bound by more than one packet's worth.
    assert all(s.n_samples <= max_samples + packet_size for s in out)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=8, max_value=512),
)
def test_compaction_is_idempotent(n_samples, packet_size, max_samples):
    packets = packetize(
        "ECG",
        MONDAY,
        250,
        [float(i) for i in range(n_samples)],
        packet_samples=packet_size,
        location=LOC,
    )
    segments = [segment_from_packet("alice", p) for p in packets]
    optimizer = SegmentOptimizer(MergePolicy(max_samples=max_samples))
    once = optimizer.compact(segments)
    twice = optimizer.compact(once)
    assert [s.n_samples for s in twice] == [s.n_samples for s in once]
    assert _stream_values(twice) == _stream_values(segments)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=200),
    st.lists(st.integers(min_value=1, max_value=199), min_size=1, max_size=4, unique=True),
)
def test_slicing_partitions_samples(n_samples, cut_offsets):
    segment = make_segment(n=n_samples, interval_ms=1000)
    cuts = sorted(
        {segment.start_ms + offset * 1000 for offset in cut_offsets if offset < n_samples}
    )
    points = [segment.start_ms] + cuts + [segment.end_ms]
    pieces = []
    for lo, hi in zip(points, points[1:]):
        if lo >= hi:
            continue
        piece = segment.slice_time(Interval(lo, hi))
        if piece is not None:
            pieces.append(piece)
    reassembled = [v for p in pieces for v in p.channel_values("ECG")]
    assert reassembled == list(segment.channel_values("ECG"))


def _mask_slice(segment, window):
    """Reference selection: ``(start_ms, rows)`` by timestamp mask, or None."""
    times = segment.sample_times()
    mask = (times >= window.start) & (times < window.end)
    if not mask.any():
        return None
    return int(times[mask][0]), segment.values[mask]


# Offsets are in quarter-intervals from the first sample, so windows land
# before, between, exactly on and past the sample instants.
_QUARTERS = st.integers(min_value=-12, max_value=52)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=-10**6, max_value=10**13),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=1, max_value=10),
    _QUARTERS,
    _QUARTERS,
    st.sampled_from([("ECG",), ("AccelX", "ECG"), ("ECG", "AccelX", "Respiration"), ()]),
    st.sampled_from([None, 0, 1_297_036_800_000]),
)
def test_arithmetic_slice_equals_mask_selection(
    start_ms, quarter_ms, n_samples, lo, hi, names, anchor
):
    interval_ms = 4 * quarter_ms
    segment = make_segment(
        channels=("ECG", "AccelX"), start_ms=start_ms, n=n_samples, interval_ms=interval_ms
    )
    window = Interval(start_ms + min(lo, hi) * quarter_ms, start_ms + max(lo, hi) * quarter_ms)
    expected = _mask_slice(segment, window)
    sliced = segment.slice_time(window)
    if expected is None:
        assert sliced is None
    else:
        assert (sliced.start_ms, sliced.interval_ms) == (expected[0], interval_ms)
        assert np.array_equal(sliced.values, expected[1])
        assert (sliced is segment) == (len(expected[1]) == n_samples)

    chain = sliced.select_channels(names) if sliced is not None else None
    if chain is not None:
        if anchor is not None:
            chain = replace(chain, start_ms=anchor, segment_id="")
        chain = chain.bare()
    built = segment.released_piece(window, names, anchor)
    assert (built is None) == (chain is None)
    if built is not None:
        assert built.to_json() == chain.to_json()
        assert segment.location is not None and segment.context
        assert built.location is None and built.context == {}


_ACTIONS = st.one_of(
    st.just(ALLOW),
    st.just(DENY),
    st.sampled_from(
        [
            abstraction(Stress="NotShare"),
            abstraction(Activity="MoveNotMove"),
            abstraction(Location="city", Time="hour"),
            abstraction(Smoking="SmokingNotSmoking"),
        ]
    ),
)

_TIMES = st.sampled_from(
    [
        TimeCondition(),
        TimeCondition(intervals=(Interval(MONDAY, MONDAY + 3_600_000),)),
        TimeCondition(repeated=(RepeatedTime.weekly(["Tue", "Sat"], "7:30am", "11:45pm"),)),
        TimeCondition(
            intervals=(Interval(0, 1), Interval(5, 500)),
            repeated=(RepeatedTime.weekly(["Sun"], "10:00pm", "2:00am"),),
        ),
    ]
)


@settings(max_examples=60, deadline=None)
@given(
    st.builds(
        Rule,
        consumers=st.sampled_from([(), ("bob",), ("bob", "carol"), ("study-x",)]),
        location_labels=st.sampled_from([(), ("home",), ("home", "work")]),
        sensors=st.sampled_from([(), ("ECG",), ("Accelerometer", "GPS")]),
        contexts=st.sampled_from([(), ("Drive",), ("Conversation", "Smoke")]),
        time=_TIMES,
        action=_ACTIONS,
        note=st.sampled_from(["", "a note"]),
    )
)
def test_rule_json_roundtrip_preserves_identity(rule):
    again = rule_from_json(rule_to_json(rule))
    assert again.rule_id == rule.rule_id
    assert again.consumers == rule.consumers
    assert again.sensors == rule.sensors
    assert again.contexts == rule.contexts
    assert again.action == rule.action
    assert again.time == rule.time
    assert again.note == rule.note


# ----------------------------------------------------------------------
# The store's log: dump and install
# ----------------------------------------------------------------------

_NAMES = ("alice", "ben", "cy")

_holdings = st.fixed_dictionaries(
    {
        "rules": st.integers(min_value=0, max_value=3),
        "places": st.integers(min_value=0, max_value=2),
        "segments": st.integers(min_value=0, max_value=3),
        "accesses": st.integers(min_value=0, max_value=3),
    }
)


def _build_store(holdings, directory=None):
    """A store holding, per contributor, the generated amount of each kind."""
    service = DataStoreService("st", Network(), directory=directory)
    service.register_consumer("bob")
    for name, held in sorted(holdings.items()):
        service.register_contributor(name)
        for i in range(held["rules"]):
            action = DENY if i % 2 else ALLOW
            service.rules.add(name, Rule(consumers=("bob",), action=action, rule_id=f"{name}-{i}"))
        if held["places"]:
            service.set_places(
                name,
                {
                    f"p{i}": LabeledPlace(f"p{i}", BoundingBox(i, i, i + 1, i + 1))
                    for i in range(held["places"])
                },
            )
        for i in range(held["segments"]):
            service.store.add_segment(
                make_segment(contributor=name, start_ms=MONDAY + i * 3_600_000)
            )
        for i in range(held["accesses"]):
            service.audit.record_access(
                principal="bob", contributor=name, query={"N": i}, raw_access=False,
                segments_scanned=i,
            )
    service.store.flush()
    return service


def _canonical(records):
    return sorted(jsonutil.canonical_dumps([op, data]) for op, data in records)


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(st.sampled_from(_NAMES), _holdings, max_size=3),
    st.sets(st.sampled_from(_NAMES + ("nobody",))),
)
def test_dump_then_install_is_the_identity(holdings, moving):
    source = _build_store(holdings)
    dumped = dump(source)

    copy = DataStoreService("st", Network())
    for op, data in dumped:
        apply(copy, op, data, journal=False)
    assert _canonical(dump(copy)) == _canonical(dumped)

    # Every op is idempotent or last-wins: a second install is a no-op.
    for op, data in dumped:
        apply(copy, op, data, journal=False)
    assert _canonical(dump(copy)) == _canonical(dumped)

    # A contributor range is a filter over the one walk, not a second walk.
    assert dump(source, moving) == [
        (op, data) for op, data in dumped if record_owner(op, data) in moving
    ]


@settings(max_examples=25, deadline=None)
@given(st.dictionaries(st.sampled_from(_NAMES), _holdings, max_size=3))
def test_snapshot_then_recover_is_the_identity(holdings):
    with tempfile.TemporaryDirectory() as directory:
        source = _build_store(holdings, directory)
        write_snapshot(source)
        restarted = DataStoreService("st", Network(), directory=directory)
        assert recover_service(restarted).clean
    assert _canonical(dump(restarted)) == _canonical(dump(source))
    for name in _NAMES:
        assert restarted.store.content_fingerprint(name) == source.store.content_fingerprint(name)
        assert (
            restarted.store.query(name, DataQuery()).n_samples
            == source.store.query(name, DataQuery()).n_samples
        )
