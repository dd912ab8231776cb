"""Persona-driven trace simulator.

Turns a persona's ground-truth timeline into per-channel sensor packets
whose signal statistics are *conditioned on the ground truth*, so that the
context classifiers in :mod:`repro.context` can actually recover the labels:

* Accelerometer magnitude variance and dominant frequency depend on the
  transport mode (Still < Drive < Walk < Bike < Run), following the feature
  set of Reddy et al.'s transportation-mode work the paper cites.
* The ECG channel carries a heart-rate-proxy signal elevated under stress;
  respiration carries a breathing-rate proxy elevated under stress, with a
  distinctive slow/deep signature while smoking (as in the AutoSense/
  FieldStream studies the paper cites).
* Microphone amplitude rises during conversation.
* GPS follows the persona's current place with jitter.

Rates default to laptop-friendly values (see :mod:`repro.sensors.channels`);
``SimulatorConfig.rate_scale`` scales them uniformly when benchmarks want
more or less volume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.exceptions import ValidationError
from repro.sensors.channels import CHANNELS, ChannelSpec
from repro.sensors.packets import SensorPacket, packetize
from repro.sensors.personas import ActivityState, Persona
from repro.util.idgen import DeterministicRng

# Per-mode accelerometer model: (noise std m/s^2, dominant freq Hz, amplitude).
_ACCEL_MODEL = {
    "Still": (0.05, 0.0, 0.0),
    "Walk": (0.60, 1.8, 1.2),
    "Run": (1.20, 2.8, 3.0),
    "Bike": (0.80, 1.2, 1.6),
    "Drive": (0.35, 0.3, 0.5),
}

_HR_BASE = 65.0  # bpm proxy carried on the ECG channel
_HR_STRESS_DELTA = 25.0
_HR_ACTIVITY_DELTA = {"Still": 0.0, "Walk": 15.0, "Run": 60.0, "Bike": 40.0, "Drive": 5.0}

_RESP_BASE = 14.0  # breaths/min proxy
_RESP_STRESS_DELTA = 5.0
_RESP_SMOKING_RATE = 8.0  # slow deep puff breathing
_RESP_SMOKING_AMP = 6.0
_RESP_CONVERSATION_STD = 2.5  # irregular breathing while talking

_MIC_QUIET_DB = -60.0
_MIC_CONVERSATION_DB = -22.0
_MIC_DRIVE_DB = -38.0


@dataclass(frozen=True)
class SimulatorConfig:
    """Knobs for trace generation.

    Attributes:
        channels: channel names to simulate; default is every registered
            channel except skin temperature (unused by any context).
        rate_scale: multiply every channel's default rate by this factor.
        packet_samples: per-channel packet-size override; None uses the
            channel's hardware packet size.
        attach_ground_truth: carry ground-truth context labels on packets
            (needed for scoring; a real deployment would not have them).
    """

    channels: tuple[str, ...] = (
        "AccelX",
        "AccelY",
        "AccelZ",
        "GpsLat",
        "GpsLon",
        "MicAmplitude",
        "ECG",
        "Respiration",
    )
    rate_scale: float = 1.0
    packet_samples: Optional[dict] = None
    attach_ground_truth: bool = True

    def __post_init__(self) -> None:
        if self.rate_scale <= 0:
            raise ValidationError(f"rate_scale must be positive: {self.rate_scale}")
        unknown = [c for c in self.channels if c not in CHANNELS]
        if unknown:
            raise ValidationError(f"unknown channels in simulator config: {unknown}")

    def interval_ms(self, spec: ChannelSpec) -> int:
        rate = spec.default_rate_hz * self.rate_scale
        return max(1, int(round(1000.0 / rate)))

    def packet_size(self, spec: ChannelSpec) -> int:
        if self.packet_samples and spec.name in self.packet_samples:
            return int(self.packet_samples[spec.name])
        return spec.packet_samples


@dataclass
class SimulatedTrace:
    """Output of one simulation run."""

    persona_name: str
    states: list  # list[ActivityState], ground truth
    packets: dict  # channel name -> list[SensorPacket]

    def all_packets_sorted(self) -> list:
        """Every packet across channels, ordered by start time."""
        merged: list[SensorPacket] = []
        for plist in self.packets.values():
            merged.extend(plist)
        merged.sort(key=lambda p: (p.start_ms, p.channel_name))
        return merged

    def total_samples(self) -> int:
        return sum(len(p.values) for plist in self.packets.values() for p in plist)

    def state_at(self, ts_ms: int):
        """Ground-truth state covering a timestamp, or None."""
        # States are sorted and contiguous per persona timeline.
        lo, hi = 0, len(self.states) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            iv = self.states[mid].interval
            if ts_ms < iv.start:
                hi = mid - 1
            elif ts_ms >= iv.end:
                lo = mid + 1
            else:
                return self.states[mid]
        return None


class TraceSimulator:
    """Generates sensor packets for a persona over a span of days."""

    def __init__(self, persona: Persona, config: Optional[SimulatorConfig] = None, seed: int = 0):
        self.persona = persona
        self.config = config or SimulatorConfig()
        self.rng = DeterministicRng(seed).fork(f"trace:{persona.name}")

    def run(self, start_ms: int, days: int = 1) -> SimulatedTrace:
        """Simulate ``days`` days starting at ``start_ms`` (midnight UTC)."""
        states = self.persona.timeline(start_ms, days, self.rng.fork("timeline"))
        packets: dict = {name: [] for name in self.config.channels}
        for state in states:
            for name in self.config.channels:
                packets[name].extend(self._state_packets(name, state))
        return SimulatedTrace(self.persona.name, states, packets)

    # ------------------------------------------------------------------
    # Per-channel signal models
    # ------------------------------------------------------------------

    def _state_packets(self, channel_name: str, state: ActivityState) -> list:
        spec = CHANNELS[channel_name]
        interval_ms = self.config.interval_ms(spec)
        n = state.interval.duration_ms // interval_ms
        if n <= 0:
            return []
        times = state.interval.start + np.arange(n) * interval_ms
        values = self._signal(channel_name, state, times)
        context = state.context_labels() if self.config.attach_ground_truth else {}
        return packetize(
            channel_name,
            int(state.interval.start),
            interval_ms,
            values,
            packet_samples=self.config.packet_size(spec),
            location=state.location,
            context=context,
        )

    def _signal(self, channel_name: str, state: ActivityState, times: np.ndarray) -> np.ndarray:
        rng = self.rng.np
        n = len(times)
        t_sec = times / 1000.0
        if channel_name in ("AccelX", "AccelY", "AccelZ"):
            std, freq, amp = _ACCEL_MODEL.get(state.activity, _ACCEL_MODEL["Still"])
            base = 9.81 if channel_name == "AccelZ" else 0.0
            phase = {"AccelX": 0.0, "AccelY": 2.1, "AccelZ": 4.2}[channel_name]
            periodic = amp * np.sin(2 * math.pi * freq * t_sec + phase) if freq > 0 else 0.0
            return base + periodic + rng.normal(0.0, std, n)
        if channel_name == "GpsLat":
            return state.location.lat + rng.normal(0.0, 0.00005, n)
        if channel_name == "GpsLon":
            return state.location.lon + rng.normal(0.0, 0.00005, n)
        if channel_name == "ECG":
            hr = (
                _HR_BASE
                + (_HR_STRESS_DELTA if state.stressed else 0.0)
                + _HR_ACTIVITY_DELTA.get(state.activity, 0.0)
            )
            return hr + rng.normal(0.0, 3.0, n)
        if channel_name == "Respiration":
            if state.smoking:
                rate = _RESP_SMOKING_RATE
                wave = _RESP_SMOKING_AMP * np.sin(2 * math.pi * (rate / 60.0) * t_sec)
                return rate + wave + rng.normal(0.0, 0.8, n)
            rate = _RESP_BASE + (_RESP_STRESS_DELTA if state.stressed else 0.0)
            std = _RESP_CONVERSATION_STD if state.in_conversation else 0.8
            return rate + rng.normal(0.0, std, n)
        if channel_name == "MicAmplitude":
            if state.in_conversation:
                return _MIC_CONVERSATION_DB + rng.normal(0.0, 6.0, n)
            if state.activity == "Drive":
                return _MIC_DRIVE_DB + rng.normal(0.0, 3.0, n)
            return _MIC_QUIET_DB + rng.normal(0.0, 2.0, n)
        if channel_name == "SkinTemp":
            return 33.0 + rng.normal(0.0, 0.2, n)
        raise ValidationError(f"no signal model for channel {channel_name!r}")
