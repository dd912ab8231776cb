"""Windowed feature extraction over sensor samples.

Classifiers operate on fixed-duration windows of per-channel samples.  The
features follow the literature the paper cites: accelerometer variance and
dominant frequency for transportation mode (Reddy et al.), heart/breathing
rate statistics for stress and smoking (Plarre et al.), and amplitude
statistics for conversation detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.exceptions import ValidationError


@dataclass(frozen=True)
class FeatureVector:
    """Summary statistics of one channel over one window."""

    mean: float
    std: float
    minimum: float
    maximum: float
    dominant_freq_hz: float
    energy: float

    @property
    def peak_to_peak(self) -> float:
        return self.maximum - self.minimum


def _peak_frequency(centered: np.ndarray, rate_hz: float) -> float:
    """Dominant non-DC frequency of an already mean-centred window, in Hz."""
    n = len(centered)
    if n < 8 or rate_hz <= 0:
        return 0.0
    spectrum = np.abs(np.fft.rfft(centered))
    if len(spectrum) <= 1:
        return 0.0
    spectrum[0] = 0.0  # ignore DC
    peak = int(np.argmax(spectrum))
    if spectrum[peak] < 1e-9:
        return 0.0
    freqs = np.fft.rfftfreq(n, d=1.0 / rate_hz)
    return float(freqs[peak])


def dominant_frequency(values: np.ndarray, rate_hz: float) -> float:
    """Dominant non-DC frequency via the real FFT, in Hz.

    Returns 0.0 for windows too short to estimate or with negligible
    spectral energy (a flat signal has no meaningful dominant frequency).
    """
    if len(values) < 8:
        return 0.0
    return _peak_frequency(values - values.mean(), rate_hz)


def window_features(values: np.ndarray, rate_hz: float) -> FeatureVector:
    """Compute the standard feature vector for one channel window.

    One pass: the mean is taken once and the window centred once; the
    centred copy feeds the variance and the FFT.  The arithmetic is what
    ``arr.mean()`` / ``arr.std()`` / ``np.mean(centered**2)`` do
    internally, in the same order, so the results are bit-identical to
    those expressions (pinned in ``tests/context/test_features.py``).
    """
    arr = np.asarray(values, dtype=np.float64)
    n = arr.size
    if n == 0:
        raise ValidationError("cannot extract features from an empty window")
    mean = np.add.reduce(arr) / n
    centered = arr - mean
    energy = np.add.reduce(centered * centered) / n
    return FeatureVector(
        mean=float(mean),
        std=float(np.sqrt(energy)),
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        dominant_freq_hz=_peak_frequency(centered, rate_hz),
        energy=float(energy),
    )


def channel_features(
    windows: Mapping[str, np.ndarray], rates_hz: Mapping[str, float]
) -> dict:
    """Feature vectors for several channels' windows at once."""
    out = {}
    for name, values in windows.items():
        rate = rates_hz.get(name, 0.0)
        out[name] = window_features(values, rate)
    return out
