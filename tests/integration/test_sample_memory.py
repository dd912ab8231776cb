"""Tier-1 budget: a sample is eight bytes before it is stored, too.

§5.1 keeps a sample in a compact value blob; since PRs 17-20 it is 8 B on
every wire hop.  These tests hold the same line *in memory*, on the phone
(whose offline queue holds packets) and on the store before a segment is
final: ``SensorPacket.values`` is a float64 array — a view of the run or of
the upload frame it was cut from — not a tuple of boxed ``float``s at
32 B each, and nothing between the sensor and the optimizer turns samples
into Python objects one by one.  On the server's own path (a decoded
frame through one ``add_packets``) a stored run is the one segment built
for it, and pins no request.

Both measurements are ``tracemalloc`` counts, deterministic on one
interpreter, so they gate in tier-1 where a sixth ``ledger-smoke``
threshold on ``peak_rss_mb`` would measure the allocator and the box.
The static guard below names the conversions that used to do the boxing.
"""

import ast
import gc
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.datastore.optimizer import MergePolicy
from repro.datastore.segment_store import SegmentStore
from repro.datastore.wavesegment import WaveSegment, segment_from_packet
from repro.net import wire
from repro.sensors.packets import decode_upload, encode_upload, packetize
from repro.sensors.personas import make_persona
from repro.sensors.simulator import SimulatorConfig, TraceSimulator

from tests.conftest import MONDAY, UCLA

ROOT = Path(__file__).resolve().parents[2]


def test_a_contributor_day_held_as_packets_costs_eight_bytes_a_sample():
    """≈108 k samples in ≈3.7 k packets: 8 B a sample plus at most 900 B a
    packet (the dataclass, its dict, the array header, the label dict).
    At 3541740 the same day held ≈46 B a sample, 32 of them the boxed
    float and its slot in the tuple, before any header."""
    persona, config = make_persona("alice"), SimulatorConfig(rate_scale=0.05)
    TraceSimulator(persona, config, seed=3).run(MONDAY, days=1)  # imports, caches
    gc.collect()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        packets = TraceSimulator(persona, config, seed=3).run(MONDAY, days=1).all_packets_sorted()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    samples = sum(len(p.values) for p in packets)
    assert 100_000 < samples < 120_000 and 3_000 < len(packets) < 4_500
    assert held <= 8 * samples + 900 * len(packets), (held / samples, "B/sample")
    assert held >= 8 * samples  # the measurement saw the samples at all


def _blocks_allocated_by_one_upload(n_packets: int, per_packet: int) -> int:
    """Traced blocks still held after ``decode_upload`` → ``add_packet`` →
    ``flush`` of one seamless batch, the packets themselves kept alive."""
    samples = range(n_packets * per_packet)
    batch = packetize("ECG", MONDAY, 250, samples, packet_samples=per_packet)
    frame = wire.decode(wire.encode(encode_upload(batch)))
    store = SegmentStore(merge_policy=MergePolicy(max_samples=1 << 20))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        packets = decode_upload(frame)
        for packet in packets:
            store.add_packet("alice", packet)
        store.flush()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert len(packets) == n_packets and store.stats.n_samples == n_packets * per_packet
    assert store.stats.n_segments == 1
    return sum(stat.count_diff for stat in after.compare_to(before, "filename"))


def test_an_upload_allocates_per_packet_not_per_sample():
    """A 10-minute ECG batch at full rate is 150 000 samples in 2 344
    packets; scaled to 150 packets, sixteen times the samples in the same
    number of packets must not cost one more Python object per sample (at
    3541740: +9 000 blocks, one ``float`` each), while twice the packets
    does cost more."""
    _blocks_allocated_by_one_upload(8, 4)  # first-call caches
    thin = _blocks_allocated_by_one_upload(150, 4)
    thick = _blocks_allocated_by_one_upload(150, 64)
    twice = _blocks_allocated_by_one_upload(300, 4)
    assert abs(thick - thin) <= 16, (thin, thick)
    assert twice - thin >= 300, (thin, twice)


def _a_phone_frame() -> tuple:
    """An upload as the store receives it: three channels' packets
    interleaved in time (two label sets, one location, a gap) as one
    decoded frame, and the frame's blob as bytes."""
    still, walk = {"Activity": "Still"}, {"Activity": "Walk"}
    runs = [
        packetize("ECG", MONDAY, 4, range(640), packet_samples=64, location=UCLA, context=still),
        packetize("AccelX", MONDAY, 20, range(96), packet_samples=32, location=UCLA,
                  context=still),  # fmt: skip
        packetize("AccelY", MONDAY, 20, range(96), packet_samples=32, location=UCLA,
                  context=still),  # fmt: skip
        packetize("ECG", MONDAY + 10_000, 4, range(64), location=UCLA, context=still),  # a gap
        packetize("ECG", MONDAY + 10_256, 4, range(64), location=UCLA, context=walk),
    ]
    packets = sorted((p for run in runs for p in run), key=lambda p: p.start_ms)
    frame = wire.decode(wire.encode(encode_upload(packets)))
    return frame, frame["Values"]["Blob"]


@pytest.mark.parametrize("flush", [True, False], ids=["flush-in-the-call", "flush-after"])
def test_one_add_packets_builds_a_segment_a_stored_run_and_pins_no_frame(flush):
    """The server's path, ``decode_upload`` → one ``add_packets``: each
    stored run is the one ``WaveSegment`` built for it, and owns its samples.
    Offering each packet as a segment (``segment_from_packet``) builds one
    per packet (18 here) before merging, and one more to copy each run of a
    single packet out of the frame."""
    frame, blob = _a_phone_frame()
    store = SegmentStore(merge_policy=MergePolicy(max_samples=256))
    built = []
    validate, unchecked = WaveSegment.__post_init__, WaveSegment._of_checked_format.__func__

    def checked(segment):
        built.append(segment)
        validate(segment)

    def cut(cls, *fields):
        built.append(fields)
        return unchecked(cls, *fields)

    packets = decode_upload(frame)
    with mock.patch.object(WaveSegment, "__post_init__", checked), mock.patch.object(
        WaveSegment, "_of_checked_format", classmethod(cut)
    ):
        stored = store.add_packets("alice", packets, flush=flush)
        if not flush:
            stored += store.flush()
    # ECG 256 + 256 + 128, then one packet after the gap, one under "Walk";
    # AccelX and AccelY one run each
    assert sorted(s.n_samples for s in stored) == [64, 64, 96, 96, 128, 256, 256]
    assert len(packets) == 18 and store.stats.n_segments == len(stored)
    assert [id(s) for s in built] == [id(s) for s in stored]
    frame_bytes = np.frombuffer(blob, dtype=np.uint8)
    for segment in stored:
        assert segment.values.base is None and not segment.values.flags.writeable
        assert not np.shares_memory(segment.values, frame_bytes)
    # what is stored is what offering each packet as a segment stores
    by_segments = SegmentStore(merge_policy=MergePolicy(max_samples=256))
    want = by_segments.add_segments([segment_from_packet("alice", p) for p in packets], flush=True)
    assert sorted(_fields(s) for s in stored) == sorted(_fields(s) for s in want)


def _fields(segment) -> tuple:
    return (
        segment.segment_id,
        segment.start_ms,
        segment.channels,
        segment.values.tobytes(),
        repr(segment.location),
        sorted(segment.context.items()),
    )


# ---------------------------------------------------------------------------
# Static guard: the conversions that boxed every sample stay gone
# ---------------------------------------------------------------------------

#: the modules a sample crosses between the sensor and a final segment
SAMPLE_PATH = (
    "src/repro/sensors/packets.py",
    "src/repro/sensors/simulator.py",
    "src/repro/context/annotate.py",
    "src/repro/datastore/optimizer.py",
    "src/repro/datastore/segment_store.py",
)
_BOXING_CALLS = ("tolist", "fromiter", "vstack")
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _boxing(tree):
    """``(lineno, what)`` for every ``.tolist(``, ``np.fromiter(`` and
    ``np.vstack(`` call, and every comprehension that calls ``float(``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _BOXING_CALLS:
                yield node.lineno, f".{node.func.attr}("
        elif isinstance(node, _COMPREHENSIONS):
            for inner in ast.walk(node):
                if (
                    isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Name)
                    and inner.func.id == "float"
                ):
                    yield node.lineno, "float( in a comprehension"


def test_nothing_on_the_sample_path_boxes_samples_one_by_one():
    offenders = [
        f"{name}:{lineno} {what}"
        for name in SAMPLE_PATH
        for lineno, what in _boxing(ast.parse((ROOT / name).read_text(encoding="utf-8")))
    ]
    assert offenders == [], (
        "samples travel as float64 arrays from the sensor to the final segment — slice, "
        "np.concatenate once, never per-sample Python objects: " + "; ".join(offenders)
    )


def test_the_boxing_guard_fails_on_the_parent_s_lines():
    """What ``packets.py``, ``simulator.py`` and ``WaveSegment.merge`` (then
    called once per packet by ``optimizer.py``) held at 3541740."""
    parent = ast.parse(
        "flat = np.fromiter(chain.from_iterable(p.values for p in packets), np.float64)\n"
        "samples, packets, offset = flat.tolist(), [], 0\n"
        "packets = packetize(name, start, interval_ms, [float(v) for v in values])\n"
        "merged = replace(self, values=np.vstack([self.values, other.values]), segment_id='')\n"
        "total = sum(float(v) for v in values)\n"
    )
    assert sorted(_boxing(parent)) == [
        (1, ".fromiter("),
        (2, ".tolist("),
        (3, "float( in a comprehension"),
        (4, ".vstack("),
        (5, "float( in a comprehension"),
    ]
    assert list(_boxing(ast.parse("out = [p.values[a:b] for p in packets]; x = float(n)"))) == []
