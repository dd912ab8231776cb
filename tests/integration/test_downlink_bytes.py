"""Tier-1 budget: a released sample costs its eight bytes and little more.

The sibling of ``test_uplink_bytes.py``, pointed the other way.  One
seeded contributor-day at ``rate_scale=0.05`` is uploaded in one
``collect``, as the ledger preloads a person; alice lets bob see
everything, with her ``home`` abstracted to a zipcode, and bob fetches
the day as 24 hour windows.  The store host's ``bytes_out`` —
``wire.size`` of every response body, counted by ``Network.request`` —
is divided by the samples bob received.  An hour releases ~22 pieces of
~200 samples, so whatever each piece repeats shows here: while every
piece was its own ~400 B object with the waveform's shape, format and
interval inside, the day cost 9.95 B a sample (c572d47); with each shared
header written once a frame and a five-integer row per piece it cost
8.81 (19154d4); with the row's 20-digit segment id dropped — the consumer
derives it from the header and the row — a four-integer row cost 8.72
(ebc00ff); with each header a row of its eight values, not an object of
eight named members, and a waveform's start an offset from its timestamp
(0 where time is exact) it costs 8.42.  The test's name keeps the round
figure of the budget it was first written against.
"""

from repro.core import SensorSafeSystem
from repro.datastore.query import DataQuery
from repro.rules.model import ALLOW, Rule, abstraction
from repro.sensors.personas import make_persona
from repro.sensors.simulator import SimulatorConfig, TraceSimulator
from repro.util.timeutil import Interval

from tests.conftest import MONDAY

HOUR_MS = 3_600_000
BUDGET = 8.95  # B per received sample, float64 included


def test_a_contributor_day_downloads_at_most_nine_and_a_quarter_bytes_a_sample():
    system = SensorSafeSystem(seed=5)
    alice = system.add_contributor("alice")
    persona = make_persona("alice")
    alice.set_places(persona.places.values())
    alice.add_rule(Rule(consumers=("bob",), action=ALLOW))
    alice.add_rule(
        Rule(consumers=("bob",), location_labels=("home",), action=abstraction(Location="zipcode"))
    )
    trace = TraceSimulator(persona, SimulatorConfig(rate_scale=0.05), seed=5).run(MONDAY, days=1)
    packets = trace.all_packets_sorted()
    phone = alice.phone()
    phone.collect(packets)
    bob = system.add_consumer("bob")
    bob.add_contributors(["alice"])
    store = system.network.metrics_of(alice.store_host)
    before = store.bytes_out, store.requests_in
    released = [
        piece
        for start in range(MONDAY, MONDAY + 24 * HOUR_MS, HOUR_MS)
        for piece in bob.fetch("alice", DataQuery(time_range=Interval(start, start + HOUR_MS)))
    ]
    received = sum(piece.segment.values.size for piece in released if piece.segment is not None)
    assert store.requests_in - before[1] == 24
    assert {piece.location_level for piece in released} == {"coordinates", "zipcode"}
    assert received > 0.9 * phone.stats.samples_uploaded
    per_sample = (store.bytes_out - before[0]) / received
    assert 8.0 < per_sample <= BUDGET, f"{per_sample:.2f} B per received sample"
