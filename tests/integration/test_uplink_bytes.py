"""Tier-1 budget: an uploaded sample costs its eight bytes and little more.

One seeded contributor-day at ``rate_scale=0.05`` goes through
``SmartphoneAgent.collect`` in ten-minute batches, as a phone sends it,
and the store host's ``bytes_in`` — ``wire.size`` of every request body,
counted by ``Network.request`` — is divided by the samples the phone
uploaded.  A packet holds ~30 samples at this rate, so whatever each
packet repeats shows here: while every packet re-sent its channel,
interval, location and four labels the day cost 16.60 B a sample
(8fa982b); with one stream header per label change per channel and a
three-integer row per packet it cost 11.71 (ebc00ff); with the location
and labels the channels share written once a frame, as a capture the
stream rows point into, it costs 9.58.  The test's name keeps the round
figure of the budget it was first written against.
"""

from repro.core import SensorSafeSystem
from repro.rules.model import ALLOW, Rule
from repro.sensors.personas import make_persona
from repro.sensors.simulator import SimulatorConfig, TraceSimulator

from tests.conftest import MONDAY

BATCH_MS = 600_000
BUDGET = 9.85  # B per uploaded sample, float64 included


def test_a_contributor_day_uploads_at_most_twelve_bytes_a_sample():
    system = SensorSafeSystem(seed=5)
    alice = system.add_contributor("alice")
    persona = make_persona("alice")
    alice.set_places(persona.places.values())
    alice.add_rule(Rule(consumers=("bob",), action=ALLOW))
    trace = TraceSimulator(persona, SimulatorConfig(rate_scale=0.05), seed=5).run(MONDAY, days=1)
    packets = trace.all_packets_sorted()
    phone = alice.phone()
    store = system.network.metrics_of(alice.store_host)
    before = store.bytes_in, store.requests_in
    for start in range(MONDAY, MONDAY + 24 * 3_600_000, BATCH_MS):
        phone.collect([p for p in packets if start <= p.start_ms < start + BATCH_MS])
    uploaded = phone.stats.samples_uploaded
    assert phone.stats.upload_failures == 0 and uploaded == sum(len(p.values) for p in packets)
    assert store.requests_in - before[1] == phone.stats.upload_requests == 144
    per_sample = (store.bytes_in - before[0]) / uploaded
    assert 8.0 < per_sample <= BUDGET, f"{per_sample:.2f} B per uploaded sample"
