"""Windowed feature extraction over sensor samples.

Classifiers operate on fixed-duration windows of per-channel samples.  The
features follow the literature the paper cites: accelerometer variance and
dominant frequency for transportation mode (Reddy et al.), heart/breathing
rate statistics for stress and smoking (Plarre et al.), and amplitude
statistics for conversation detection.

There is one numeric kernel, :class:`WindowTable`: a channel's windows of
equal rate and sample count are its rows, and a statistic is a column over
all of them, computed when some row is first asked for it — per table, not
per window.  A row, :class:`WindowSamples`, then holds that statistic as a
plain float, so a classifier's per-window reads are attribute lookups.  The
default pipeline reads 9 (channel, statistic) columns of the 30 its five
channels have, and only three, the accelerometer's dominant frequencies,
need an FFT.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
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


class _column:
    """A table's statistic, worked out on first read and then kept in the
    instance: ``functools.cached_property`` without the lock it takes on
    every first read, which a ten-minute upload's small tables feel."""

    def __init__(self, compute):
        self.compute, self.name, self.__doc__ = compute, compute.__name__, compute.__doc__

    def __get__(self, table, owner=None):
        if table is None:
            return self
        value = table.__dict__[self.name] = self.compute(table)
        return value


class WindowTable:
    """One channel's windows of equal sample count, a window per row.

    Each statistic is a column over every row, worked out when the first
    row is asked for it and then kept, so a ``collect`` call of any size
    pays one FFT per (channel, window length) and not one per window.  A
    column is taken along each row in the order ``arr.mean()`` /
    ``arr.std()`` / ``np.mean(centered**2)`` / ``np.fft.rfft(centered)``
    use on that row alone — the mean once, the rows centred once — so
    every cell is bit-identical to those expressions (pinned in
    ``tests/context/test_features.py`` and ``test_window_table.py``).
    """

    def __init__(self, rows: np.ndarray, rate_hz: float):
        self.rows = rows
        self.rate_hz = rate_hz
        #: Each row as what a classifier reads, a :class:`WindowSamples`.
        self.cells = [WindowSamples.__new__(WindowSamples) for _ in range(len(rows))]
        for row, cell in enumerate(self.cells):
            cell._table, cell._row = self, row

    @_column
    def _samples(self) -> np.ndarray:
        if self.rows.shape[1] == 0:
            raise ValidationError("cannot extract features from an empty window")
        return self.rows

    @_column
    def mean(self) -> np.ndarray:
        """Arithmetic mean of each window."""
        return np.add.reduce(self._samples, axis=1) / self._samples.shape[1]

    @_column
    def _centered(self) -> np.ndarray:
        return self._samples - self.mean[:, None]

    @_column
    def energy(self) -> np.ndarray:
        """Variance: each window's mean squared deviation from its mean."""
        centered = self._centered
        return np.add.reduce(centered * centered, axis=1) / centered.shape[1]

    @_column
    def std(self) -> np.ndarray:
        """Population standard deviation of each window."""
        return np.sqrt(self.energy)

    @_column
    def minimum(self) -> np.ndarray:
        """Smallest sample of each window."""
        return self._samples.min(axis=1)

    @_column
    def maximum(self) -> np.ndarray:
        """Largest sample of each window."""
        return self._samples.max(axis=1)

    @_column
    def dominant_freq_hz(self) -> np.ndarray:
        """Dominant non-DC frequency of each window, in Hz: the one FFT.

        0.0 for windows too short to estimate or with negligible spectral
        energy (a flat signal has no meaningful dominant frequency).
        """
        n = self._samples.shape[1]
        if n < 8 or self.rate_hz <= 0:
            return np.zeros(len(self.rows))
        spectrum = np.abs(np.fft.rfft(self._centered, axis=1))
        spectrum[:, 0] = 0.0  # ignore DC
        peak = np.argmax(spectrum, axis=1)
        # Element ``peak`` of ``np.fft.rfftfreq(n, d=1.0 / rate_hz)``, in the
        # same operation order, without building the other bins.
        freq = peak * (1.0 / (n * (1.0 / self.rate_hz)))
        freq[spectrum.max(axis=1) < 1e-9] = 0.0
        return freq


#: What a window is summarised by: the fields of a :class:`FeatureVector`.
STATISTICS = tuple(field.name for field in fields(FeatureVector))


class WindowSamples:
    """One channel's samples over one window: a row of a :class:`WindowTable`.

    Reads like a :class:`FeatureVector`, and a statistic is a plain float
    attribute.  The first read of one on any row works its column out for
    every window of the table at once and sets it, from one ``tolist()``,
    on every row; each later read is an attribute lookup.  Built from
    ``values`` alone it is the one row of its own table.
    """

    __slots__ = ("_table", "_row", *STATISTICS)

    def __init__(self, values, rate_hz: float):
        self._table = WindowTable(np.asarray(values, dtype=np.float64).reshape(1, -1), rate_hz)
        self._row, self._table.cells[0] = 0, self

    def __getattr__(self, name: str) -> float:
        """An unset statistic: fill its column into every row of the table."""
        if name not in STATISTICS:
            raise AttributeError(f"'WindowSamples' object has no attribute {name!r}")
        for cell, value in zip(self._table.cells, getattr(self._table, name).tolist()):
            setattr(cell, name, value)
        return getattr(self, name)

    values = property(lambda self: self._table.rows[self._row], doc="The window's samples.")
    rate_hz = property(lambda self: self._table.rate_hz, doc="Sampling rate, in Hz.")
    peak_to_peak = FeatureVector.peak_to_peak


def dominant_frequency(values: np.ndarray, rate_hz: float) -> float:
    """Dominant non-DC frequency via the real FFT, in Hz.

    Returns 0.0 for windows too short to estimate or with negligible
    spectral energy (a flat signal has no meaningful dominant frequency).
    """
    if len(values) < 8:
        return 0.0
    return WindowSamples(values, rate_hz).dominant_freq_hz


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
