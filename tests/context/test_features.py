"""Tests for windowed feature extraction."""

import math

import numpy as np
import pytest

from repro.context.features import (
    FeatureVector,
    WindowSamples,
    channel_features,
    dominant_frequency,
    window_features,
)
from repro.exceptions import ValidationError


class TestWindowFeatures:
    def test_basic_statistics(self):
        fv = window_features(np.array([1.0, 2.0, 3.0, 4.0]), rate_hz=4.0)
        assert fv.mean == 2.5
        assert fv.minimum == 1.0 and fv.maximum == 4.0
        assert fv.peak_to_peak == 3.0
        assert fv.std == pytest.approx(np.std([1, 2, 3, 4]))

    def test_empty_window_rejected(self):
        with pytest.raises(ValidationError):
            window_features(np.array([]), rate_hz=4.0)

    def test_energy_is_variance(self):
        values = np.array([0.0, 2.0, 0.0, 2.0])
        fv = window_features(values, rate_hz=4.0)
        assert fv.energy == pytest.approx(np.var(values))


class TestDominantFrequency:
    def test_pure_sine_recovered(self):
        rate = 32.0
        t = np.arange(256) / rate
        for freq in (1.0, 2.5, 4.0):
            signal = np.sin(2 * math.pi * freq * t)
            assert dominant_frequency(signal, rate) == pytest.approx(freq, abs=0.2)

    def test_flat_signal_has_no_dominant_freq(self):
        assert dominant_frequency(np.ones(64), 10.0) == 0.0

    def test_short_window_returns_zero(self):
        assert dominant_frequency(np.array([1.0, 2.0]), 10.0) == 0.0

    def test_dc_offset_ignored(self):
        rate = 32.0
        t = np.arange(256) / rate
        signal = 100.0 + np.sin(2 * math.pi * 2.0 * t)
        assert dominant_frequency(signal, rate) == pytest.approx(2.0, abs=0.2)


def textbook_dominant_frequency(values, rate_hz):
    """``dominant_frequency`` as it stood before the one-pass rewrite."""
    n = len(values)
    if n < 8 or rate_hz <= 0:
        return 0.0
    centered = values - values.mean()
    spectrum = np.abs(np.fft.rfft(centered))
    spectrum[0] = 0.0
    peak = int(np.argmax(spectrum))
    if spectrum[peak] < 1e-9:
        return 0.0
    return float(np.fft.rfftfreq(n, d=1.0 / rate_hz)[peak])


def textbook_features(values, rate_hz):
    """The expressions ``window_features`` replaced, one library call each."""
    arr = np.asarray(values, dtype=np.float64)
    centered = arr - arr.mean()
    return FeatureVector(
        mean=float(arr.mean()),
        std=float(arr.std()),
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        dominant_freq_hz=textbook_dominant_frequency(arr, rate_hz),
        energy=float(np.mean(centered**2)),
    )


class TestOnePassIsBitIdentical:
    """Inferred labels gate uploads, so the single-pass arithmetic must
    equal the textbook expressions in every bit, not approximately."""

    def windows(self):
        rng = np.random.default_rng(20111)
        yield np.array([3.25]), 4.0  # single sample
        for n in (1, 2, 7, 8, 9, 64):
            yield np.full(n, 0.1), 4.0  # constant: mean*n != sum in float
        for i in range(2_000):
            n = int(rng.integers(1, 80))
            values = rng.normal(rng.normal(0, 50), abs(rng.normal(0, 10)), n)
            if i % 3 == 1:
                values = np.round(values, 2)
            elif i % 3 == 2:
                values = values.astype(np.float32)
            yield values, float(rng.choice([0.0, 1.0, 4.0, 25.0]))

    def test_window_features_match_the_textbook_expressions(self):
        for values, rate in self.windows():
            assert window_features(values, rate) == textbook_features(values, rate)
            assert window_features(list(values), rate) == textbook_features(values, rate)

    def test_dominant_frequency_matches_its_old_body(self):
        for values, rate in self.windows():
            arr = np.asarray(values, dtype=np.float64)
            assert dominant_frequency(arr, rate) == textbook_dominant_frequency(arr, rate)

    def test_one_frequency_bin_equals_that_element_of_rfftfreq(self):
        """``_peak_frequency`` no longer builds the bin array to read one."""
        rng = np.random.default_rng(20112)
        for _ in range(20_000):
            n = int(rng.integers(8, 4_096))
            rate = float(rng.choice([0.2, 0.8, 4.0, 25.0, 250.0, rng.uniform(0.01, 500.0)]))
            peak = int(rng.integers(0, n // 2 + 1))
            assert peak * (1.0 / (n * (1.0 / rate))) == np.fft.rfftfreq(n, d=1.0 / rate)[peak]

    def test_statistics_read_on_demand_equal_the_eager_vector(self):
        """Whatever a classifier reads first, it reads ``window_features``'s value."""
        names = ("mean", "std", "minimum", "maximum", "dominant_freq_hz", "energy")
        rng = np.random.default_rng(20113)
        for values, rate in self.windows():
            eager = textbook_features(values, rate)
            samples = WindowSamples(list(values), rate)
            for name in rng.permutation(names):
                assert getattr(samples, name) == getattr(eager, name)

    def test_empty_samples_are_rejected_when_first_read(self):
        samples = WindowSamples([], 4.0)
        with pytest.raises(ValidationError):
            samples.mean


class TestChannelFeatures:
    def test_multi_channel(self):
        out = channel_features(
            {"ECG": np.array([60.0, 61.0]), "Respiration": np.array([14.0])},
            {"ECG": 8.0, "Respiration": 4.0},
        )
        assert set(out) == {"ECG", "Respiration"}
        assert out["Respiration"].mean == 14.0

    def test_missing_rate_defaults_to_zero(self):
        out = channel_features({"ECG": np.array([60.0] * 16)}, {})
        assert out["ECG"].dominant_freq_hz == 0.0
