"""Tests for privacy rule-aware data collection (Section 5.3)."""

import pytest

from repro.collection.phone import ANYONE, PhoneConfig, SmartphoneAgent, replace_contexts
from repro.rules.model import ALLOW, DENY, Rule, abstraction
from repro.sensors.channels import CHANNELS
from repro.sensors.packets import SensorPacket, packetize
from repro.sensors.simulator import SimulatorConfig
from repro.util.geo import BoundingBox, LabeledPlace, LatLon

from tests.conftest import MONDAY, UCLA

HOME_BOX = BoundingBox(34.02, -118.48, 34.04, -118.46)
PLACES = {
    "home": LabeledPlace("home", HOME_BOX),
    "UCLA": LabeledPlace("UCLA", BoundingBox(34.0, -118.5, 34.1, -118.4)),
}
HOME_POINT = LatLon(34.03, -118.47)


def make_agent(rules, rule_aware=True):
    agent = SmartphoneAgent(
        "alice", "alice-store", client=None, config=PhoneConfig(rule_aware=rule_aware)
    )
    agent.set_rules(rules, PLACES)
    return agent


def packet(channel="ECG", location=UCLA, start=MONDAY, context=None):
    return SensorPacket(channel, start, 250, (1.0, 2.0, 3.0, 4.0), location, context or {})


class TestSensingGate:
    def test_disabled_when_nothing_shareable_here(self):
        """Deny-at-home means the sensor is off at home."""
        rules = [
            Rule(consumers=("coach",), sensors=("Accelerometer",), action=ALLOW),
            Rule(
                consumers=("coach",),
                sensors=("Accelerometer",),
                location_labels=("home",),
                action=DENY,
            ),
        ]
        agent = make_agent(rules)
        assert agent.sensing_allowed(packet("AccelX", location=UCLA))
        assert not agent.sensing_allowed(packet("AccelX", location=HOME_POINT))

    def test_unshared_channel_never_sensed(self):
        rules = [Rule(consumers=("coach",), sensors=("Accelerometer",), action=ALLOW)]
        agent = make_agent(rules)
        assert not agent.sensing_allowed(packet("ECG"))
        assert agent.sensing_allowed(packet("AccelY"))

    def test_context_conditioned_rules_keep_sensing_on(self):
        """'Sensor data are first temporarily collected to infer current
        context': a deny-while-driving rule cannot disable the sensor."""
        rules = [
            Rule(consumers=("bob",), action=ALLOW),
            Rule(consumers=("bob",), contexts=("Drive",), action=DENY),
        ]
        agent = make_agent(rules)
        assert agent.sensing_allowed(packet("ECG"))

    def test_gate_off_when_not_rule_aware(self):
        agent = make_agent([], rule_aware=False)
        assert agent.sensing_allowed(packet("ECG"))

    def test_no_rules_means_nothing_sensed(self):
        agent = make_agent([])
        assert not agent.sensing_allowed(packet("ECG"))


class TestUploadGate:
    def test_context_deny_discards(self):
        rules = [
            Rule(consumers=("bob",), action=ALLOW),
            Rule(consumers=("bob",), contexts=("Drive",), action=DENY),
        ]
        agent = make_agent(rules)
        driving = packet("ECG", context={"Activity": "Drive"})
        still = packet("ECG", context={"Activity": "Still"})
        assert not agent.should_upload(driving)
        assert agent.should_upload(still)

    def test_label_only_release_still_uploads(self):
        """If a consumer would get at least a label, the data is kept."""
        rules = [
            Rule(consumers=("bob",), action=ALLOW),
            Rule(consumers=("bob",), action=abstraction(Stress="StressedNotStressed")),
        ]
        agent = make_agent(rules)
        assert agent.should_upload(packet("ECG", context={"Stress": "Stressed"}))

    def test_wildcard_rules_covered_by_sentinel(self):
        agent = make_agent([Rule(action=ALLOW)])  # no Consumer condition
        assert ANYONE in agent._consumers
        assert agent.should_upload(packet("ECG", context={"Activity": "Still"}))


class TestCollectLoop:
    def trace_packets(self):
        """Alternating still/driving minutes of ECG + accel."""
        packets = []
        for minute in range(10):
            activity = "Drive" if minute % 2 else "Still"
            loc = UCLA
            for channel in ("ECG", "AccelX"):
                packets.append(
                    SensorPacket(
                        channel,
                        MONDAY + minute * 60_000,
                        1000,
                        tuple(float(v) for v in range(60)),
                        loc,
                        {"Activity": activity},
                    )
                )
        return packets

    def test_stats_add_up(self):
        rules = [Rule(consumers=("bob",), action=ALLOW)]
        agent = make_agent(rules)
        kept = agent.collect(self.trace_packets(), upload=False)
        stats = agent.stats
        assert stats.samples_available == 1200
        assert (
            stats.samples_sensed
            == stats.samples_uploaded + stats.samples_discarded_context
        )
        assert stats.samples_available == stats.samples_sensed + stats.samples_skipped_gate
        assert sum(len(p.values) for p in kept) == stats.samples_uploaded

    def test_rule_aware_collects_strict_subset(self):
        rules = [
            Rule(consumers=("bob",), sensors=("ECG",), action=ALLOW),
        ]
        gate_on = make_agent(rules, rule_aware=True)
        gate_off = make_agent(rules, rule_aware=False)
        packets = self.trace_packets()
        kept_on = gate_on.collect(packets, upload=False)
        kept_off = gate_off.collect(packets, upload=False)
        assert gate_on.stats.samples_sensed < gate_off.stats.samples_sensed
        assert gate_on.stats.energy_units < gate_off.stats.energy_units
        assert {p.channel_name for p in kept_on} == {"ECG"}
        assert len(kept_off) > len(kept_on)

    def test_context_is_inferred_not_copied(self):
        rules = [Rule(consumers=("bob",), action=ALLOW)]
        agent = make_agent(rules)
        packets = self.trace_packets()
        # Add respiration so the stress/smoking classifiers have input.
        packets += [
            SensorPacket(
                "Respiration",
                MONDAY + minute * 60_000,
                1000,
                tuple(14.0 for _ in range(60)),
                UCLA,
                {"Activity": "Still"},
            )
            for minute in range(10)
        ]
        kept = agent.collect(packets, upload=False)
        # Inference ran per window: labels come from the classifiers, not
        # from the planted ground truth (which had no Stress key at all).
        assert all("Stress" in p.context for p in kept)
        assert all(p.context["Smoking"] == "NotSmoking" for p in kept)

    def test_no_upload_when_client_missing_but_upload_false(self):
        agent = make_agent([Rule(action=ALLOW)])
        agent.collect(self.trace_packets(), upload=False)  # must not raise


def continuous_stream(rate_scale, minutes=30):
    """Every default channel, firmware-sized packets, no gaps, time order."""
    config = SimulatorConfig(rate_scale=rate_scale)
    packets = []
    for name in config.channels:
        interval_ms = config.interval_ms(CHANNELS[name])
        n = minutes * 60_000 // interval_ms
        values = [float((7 * i) % 11) for i in range(n)]
        packets += packetize(name, MONDAY, interval_ms, values, location=UCLA)
    packets.sort(key=lambda p: (p.start_ms, p.channel_name))
    return packets


class TestWindowsAreSpansOfTime:
    """The phone infers a minute's context from the samples that fall in
    it, so what a packet is stamped with does not depend on which other
    channels happened to start a packet in the same minute."""

    @pytest.mark.parametrize("rate_scale", [0.05, 0.2, 1.0])
    def test_every_kept_packet_carries_all_four_categories(self, rate_scale):
        agent = make_agent([Rule(consumers=("bob",), action=ALLOW)])
        packets = continuous_stream(rate_scale)
        kept = agent.collect(packets, upload=False)
        assert len(kept) == len(packets)
        for pkt in kept:
            assert set(pkt.context) == {"Activity", "Stress", "Smoking", "Conversation"}

    def test_packets_the_sensing_gate_rejects_shape_no_label(self):
        """§5.3: data the rules say must not be collected cannot feed
        inference either — same labels as if it had never been offered."""
        rules = [Rule(consumers=("coach",), sensors=("Accelerometer", "Microphone"), action=ALLOW)]
        packets = continuous_stream(0.05)
        sensed_only = [p for p in packets if make_agent(rules).sensing_allowed(p)]
        assert 0 < len(sensed_only) < len(packets)
        gated, never_offered = make_agent(rules), make_agent(rules)
        kept = gated.collect(packets, upload=False)
        assert [(p, p.context) for p in kept] == [
            (p, p.context) for p in never_offered.collect(sensed_only, upload=False)
        ]
        assert gated.stats.samples_skipped_gate > 0
        for pkt in kept:  # no Respiration was sensed, so none was inferred from
            assert set(pkt.context) == {"Activity", "Conversation"}


class TestReplaceContexts:
    def test_strips_only_contexts(self):
        rule = Rule(
            consumers=("bob",),
            location_labels=("home",),
            contexts=("Drive",),
            sensors=("ECG",),
            action=DENY,
        )
        stripped = replace_contexts(rule)
        assert stripped.contexts == ()
        assert stripped.location_labels == rule.location_labels
        assert stripped.sensors == rule.sensors
        assert stripped.action == rule.action


class TestEndToEndWithStore:
    def test_phone_uploads_to_store(self, system):
        alice = system.add_contributor("alice")
        alice.set_places(PLACES.values())
        alice.add_rule(Rule(consumers=("bob",), action=ALLOW))
        phone = alice.phone(PhoneConfig(rule_aware=True, upload_batch_packets=50))
        assert phone.rules  # downloaded from the store
        packets = TestCollectLoop().trace_packets()
        phone.collect(packets)
        assert phone.stats.upload_requests >= 1
        stats = alice.stats()
        assert stats["Samples"] == phone.stats.samples_uploaded
