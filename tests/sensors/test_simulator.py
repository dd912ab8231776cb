"""Tests for the trace simulator's signal models and packaging."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.sensors.personas import make_persona
from repro.sensors.simulator import SimulatorConfig, TraceSimulator
from repro.util.timeutil import timestamp_ms

MONDAY = timestamp_ms(2011, 2, 7)


class TestConfig:
    def test_rejects_bad_rate_scale(self):
        with pytest.raises(ValidationError):
            SimulatorConfig(rate_scale=0.0)

    def test_rejects_unknown_channels(self):
        with pytest.raises(ValidationError):
            SimulatorConfig(channels=("Sonar",))

    def test_packet_size_override(self):
        from repro.sensors.channels import ECG

        config = SimulatorConfig(packet_samples={"ECG": 8})
        assert config.packet_size(ECG) == 8


class TestRun:
    @pytest.fixture(scope="class")
    def trace(self):
        persona = make_persona("sim", smoker=True, stress_prob=0.5)
        return TraceSimulator(persona, SimulatorConfig(rate_scale=0.2), seed=4).run(
            MONDAY, days=1
        )

    def test_every_configured_channel_present(self, trace):
        assert set(trace.packets) == set(SimulatorConfig().channels)

    def test_packets_sorted_and_seamless_within_state(self, trace):
        for plist in trace.packets.values():
            for a, b in zip(plist, plist[1:]):
                assert a.start_ms <= b.start_ms

    def test_ground_truth_attached(self, trace):
        pkt = trace.packets["ECG"][0]
        assert set(pkt.context) == {"Activity", "Stress", "Conversation", "Smoking"}

    def test_state_at_covers_trace(self, trace):
        mid = MONDAY + 12 * 3_600_000
        state = trace.state_at(mid)
        assert state is not None
        assert state.interval.contains(mid)
        assert trace.state_at(MONDAY - 1) is None

    def test_all_packets_sorted_merges_channels(self, trace):
        merged = trace.all_packets_sorted()
        assert len(merged) == sum(len(v) for v in trace.packets.values())
        for a, b in zip(merged, merged[1:]):
            assert a.start_ms <= b.start_ms

    def test_deterministic(self):
        persona = make_persona("sim2")
        config = SimulatorConfig(rate_scale=0.1, channels=("ECG",))
        t1 = TraceSimulator(persona, config, seed=9).run(MONDAY, days=1)
        t2 = TraceSimulator(persona, config, seed=9).run(MONDAY, days=1)
        assert t1.packets["ECG"][0].values.tobytes() == t2.packets["ECG"][0].values.tobytes()

    def test_total_samples_counts_everything(self, trace):
        assert trace.total_samples() == sum(
            len(p.values) for plist in trace.packets.values() for p in plist
        )


class TestSignalConditioning:
    """The signals must actually encode the ground truth."""

    @pytest.fixture(scope="class")
    def trace(self):
        persona = make_persona("cond", smoker=True, stress_prob=0.5)
        return TraceSimulator(persona, SimulatorConfig(rate_scale=0.5), seed=5).run(
            MONDAY, days=1
        )

    @staticmethod
    def _values_where(trace, channel, predicate):
        out = []
        for pkt in trace.packets[channel]:
            state = trace.state_at(pkt.start_ms)
            if state is not None and predicate(state):
                out.extend(pkt.values)
        return np.asarray(out)

    def test_stress_elevates_ecg_proxy(self, trace):
        calm = self._values_where(
            trace, "ECG", lambda s: not s.stressed and s.activity == "Still"
        )
        stressed = self._values_where(
            trace, "ECG", lambda s: s.stressed and s.activity == "Still"
        )
        assert stressed.mean() > calm.mean() + 15

    def test_smoking_lowers_respiration_rate(self, trace):
        normal = self._values_where(trace, "Respiration", lambda s: not s.smoking)
        smoking = self._values_where(trace, "Respiration", lambda s: s.smoking)
        assert smoking.mean() < normal.mean() - 3

    def test_conversation_raises_mic_level(self, trace):
        quiet = self._values_where(
            trace, "MicAmplitude", lambda s: not s.in_conversation and s.activity == "Still"
        )
        talking = self._values_where(trace, "MicAmplitude", lambda s: s.in_conversation)
        assert talking.mean() > quiet.mean() + 20

    def test_running_has_more_accel_energy_than_still(self, trace):
        still = self._values_where(trace, "AccelX", lambda s: s.activity == "Still")
        running = self._values_where(trace, "AccelX", lambda s: s.activity == "Run")
        assert running.std() > 5 * still.std()

    def test_gps_tracks_state_location(self, trace):
        pkt = trace.packets["GpsLat"][0]
        state = trace.state_at(pkt.start_ms)
        assert abs(pkt.values[0] - state.location.lat) < 0.01
