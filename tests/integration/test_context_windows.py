"""Context windows are spans of time: the bypass they close, and the merge
they let the store make (§5.1, §5.3, §6).

A context-conditioned rule protects only the segments that carry its
category.  When the phone labelled a window from the packets that *start*
in it, a Respiration packet starting in a minute with no accelerometer
packet start carried no Activity label, and ``Drive → Stress=NotShare``
could not match it.  These tests judge releases against the simulator's
ground truth, not against the stored labels the rule engine saw.
"""

from collections import Counter

import pytest

from repro.core import SensorSafeSystem
from repro.datastore.query import DataQuery
from repro.rules.model import ALLOW, Rule, abstraction
from repro.sensors.personas import make_persona
from repro.sensors.simulator import SimulatorConfig, TraceSimulator
from repro.util.timeutil import Interval

from tests.conftest import MONDAY

DAY_MS = 86_400_000
WINDOW_MS = 60_000
WHOLE_DAY = DataQuery(time_range=Interval(MONDAY, MONDAY + DAY_MS))


def sample_multiset(pieces) -> Counter:
    """``(channel, timestamp, value)`` of every sample in packets or segments."""
    out: Counter = Counter()
    for piece in pieces:
        if hasattr(piece, "channel_name"):
            names, rows = (piece.channel_name,), [(v,) for v in piece.values]
        else:
            names, rows = piece.channels, piece.values.tolist()
        for i, row in enumerate(rows):
            ts = piece.start_ms + i * piece.interval_ms
            out.update((name, ts, value) for name, value in zip(names, row))
    return out


@pytest.fixture(scope="module")
def commuter_day():
    """One Drive-commuter day at the ledger's ``rate_scale`` through the
    phone into a store, under the paper's §6 rule pair for bob and a plain
    Allow for carol."""
    system = SensorSafeSystem(seed=1)
    persona = make_persona("alice", commute_mode="Drive", stress_prob=0.25)
    trace = TraceSimulator(persona, SimulatorConfig(rate_scale=0.05), seed=1).run(MONDAY, days=1)
    alice = system.add_contributor("alice")
    alice.set_places(persona.places.values())
    alice.add_rule(Rule(consumers=("bob", "carol"), action=ALLOW))
    alice.add_rule(
        Rule(consumers=("bob",), contexts=("Drive",), action=abstraction(Stress="NotShare"))
    )
    phone = alice.phone()
    kept = phone.collect(trace.all_packets_sorted())
    consumers = {}
    for name in ("bob", "carol"):
        consumers[name] = system.add_consumer(name)
        consumers[name].add_contributors(["alice"])
    return system, alice, consumers, trace, kept


class TestDriveStressBypass:
    def test_no_raw_stress_signal_released_from_behind_the_wheel(self, commuter_day):
        """Every raw Respiration/ECG sample bob receives is looked up in the
        ground truth; a packet is stamped by its first window, so up to two
        windows' worth of samples per channel may straddle a state change."""
        _, _, consumers, trace, _ = commuter_day
        driving = Counter()
        released = Counter()
        for piece in consumers["bob"].fetch("alice", WHOLE_DAY):
            segment = piece.segment
            if segment is None:
                continue
            for name in set(segment.channels) & {"Respiration", "ECG"}:
                for i in range(segment.n_samples):
                    released[name] += 1
                    state = trace.state_at(segment.start_ms + i * segment.interval_ms)
                    if state is not None and state.activity == "Drive":
                        driving[name] += 1
        assert released["Respiration"] and released["ECG"], "bob does get stress signals"
        assert any(s.activity == "Drive" for s in trace.states), "the day includes a commute"
        for name in ("Respiration", "ECG"):
            interval_ms = trace.packets[name][0].interval_ms
            assert driving[name] <= 2 * WINDOW_MS // interval_ms, dict(driving)


class TestMergeAndNoLoss:
    def test_the_store_merges_into_few_large_segments(self, commuter_day):
        """§5.1: stores should hold segments of hundreds of samples."""
        _, alice, _, _, kept = commuter_day
        stats = alice.stats()
        assert stats["Samples"] == sum(len(p.values) for p in kept)
        assert stats["Segments"] <= 600
        assert stats["Samples"] / stats["Segments"] >= 150

    def test_stored_and_released_samples_are_the_uploaded_ones(self, commuter_day):
        _, alice, consumers, _, kept = commuter_day
        uploaded = sample_multiset(kept)
        owner = alice.view_data(WHOLE_DAY)
        assert sample_multiset(owner) == uploaded
        plain = [p.segment for p in consumers["carol"].fetch("alice", WHOLE_DAY) if p.segment]
        assert sample_multiset(plain) == uploaded
        assert len(owner) <= 600 and len(plain) <= 600

    def test_compact_finds_nothing_left_to_merge(self, commuter_day):
        system, alice, _, _, _ = commuter_day
        store = system.stores[alice.store_host].store
        assert store.compact("alice") == 0
