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
    # Element ``peak`` of ``np.fft.rfftfreq(n, d=1.0 / rate_hz)``, in the
    # same operation order, without building the other bins.
    return peak * (1.0 / (n * (1.0 / rate_hz)))


def dominant_frequency(values: np.ndarray, rate_hz: float) -> float:
    """Dominant non-DC frequency via the real FFT, in Hz.

    Returns 0.0 for windows too short to estimate or with negligible
    spectral energy (a flat signal has no meaningful dominant frequency).
    """
    if len(values) < 8:
        return 0.0
    return _peak_frequency(values - values.mean(), rate_hz)


class _on_first_read:
    """``functools.cached_property`` without the lock Python 3.11 still
    takes on every first read: compute once, then the instance attribute answers."""

    def __init__(self, compute):
        self.compute = compute
        self.name = compute.__name__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.compute(instance)
        return value


class WindowSamples:
    """One channel's samples over one window, summarised on first read.

    Reads like a :class:`FeatureVector`, but a statistic is worked out
    when a classifier first asks for it: the default pipeline reads 9 of
    the 48 cells of an eight-channel window and only the accelerometer
    needs an FFT.  The mean is taken once and the window centred once,
    in the order ``arr.mean()`` / ``arr.std()`` / ``np.mean(centered**2)``
    use internally, so results are bit-identical to those expressions
    (pinned in ``tests/context/test_features.py``).
    """

    def __init__(self, values, rate_hz: float):
        self.values = values
        self.rate_hz = rate_hz

    @_on_first_read
    def _array(self) -> np.ndarray:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.size == 0:
            raise ValidationError("cannot extract features from an empty window")
        return arr

    @_on_first_read
    def mean(self) -> float:
        """Arithmetic mean of the samples."""
        return float(np.add.reduce(self._array) / self._array.size)

    @_on_first_read
    def _centered(self) -> np.ndarray:
        return self._array - self.mean

    @_on_first_read
    def energy(self) -> float:
        """Variance: mean squared deviation from the mean."""
        centered = self._centered
        return float(np.add.reduce(centered * centered) / centered.size)

    @_on_first_read
    def std(self) -> float:
        """Population standard deviation."""
        return float(np.sqrt(self.energy))

    @_on_first_read
    def minimum(self) -> float:
        """Smallest sample."""
        return float(self._array.min())

    @_on_first_read
    def maximum(self) -> float:
        """Largest sample."""
        return float(self._array.max())

    @_on_first_read
    def dominant_freq_hz(self) -> float:
        """Dominant non-DC frequency (the only statistic that needs an FFT)."""
        return _peak_frequency(self._centered, self.rate_hz)


def window_features(values: np.ndarray, rate_hz: float) -> FeatureVector:
    """Compute the standard feature vector for one channel window, eagerly."""
    samples = WindowSamples(values, rate_hz)
    return FeatureVector(
        mean=samples.mean,
        std=samples.std,
        minimum=samples.minimum,
        maximum=samples.maximum,
        dominant_freq_hz=samples.dominant_freq_hz,
        energy=samples.energy,
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
