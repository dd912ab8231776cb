"""Metrics registry: counters, gauges, and percentile histograms.

One :class:`MetricsRegistry` serves a whole simulated deployment (it hangs
off the :class:`~repro.net.transport.Network`, which every component
already shares).  Instruments are identified by a name plus a small set of
labels; lookups are get-or-create, so callers can bind an instrument once
in their constructor and pay only an attribute access plus an integer add
on the hot path.

Privacy: every label passes the redaction boundary's
:func:`~repro.obs.redaction.check_label` at creation time — a metric
label can never carry a sample value, a coordinate, or a context label,
and an attempt to create one raises immediately.

Histograms keep a bounded sample buffer (first ``max_samples``
observations, plus exact count/sum/min/max for everything) and report
p50/p95/p99 from it; with the deterministic simulated clock driving every
workload, the early prefix is as representative as any reservoir and the
snapshot stays reproducible.

Metering is unconditional: a component binds its instruments in its
constructor and calls them unguarded.  What "telemetry off" means is
decided here, once — a disabled hub's :class:`InertRegistry` hands out
shared inert instruments whose writes do nothing and whose reads answer
as an empty instrument does, so its snapshot stays empty.  A gauge
callback is bound to its newest owner: a restarted component's gauges
read the live instance, not the one that died.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.obs.redaction import check_label


def _series_key(name: str, labels: dict) -> tuple:
    return (name,) + tuple(sorted(labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def to_json(self) -> dict:
        return {"Labels": dict(self.labels), "Value": self.value}


class Gauge:
    """A point-in-time value; optionally computed by a callback."""

    __slots__ = ("name", "labels", "_value", "callback")

    def __init__(self, name: str, labels: dict):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self.callback: Optional[Callable] = None

    @property
    def value(self) -> float:
        if self.callback is not None:
            return float(self.callback())
        return self._value

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    def reset(self) -> None:
        self._value = 0.0

    def to_json(self) -> dict:
        return {"Labels": dict(self.labels), "Value": self.value}


class Histogram:
    """Observations with exact count/sum/min/max and sampled percentiles."""

    __slots__ = ("name", "labels", "count", "total", "min", "max", "_samples", "_max_samples")

    def __init__(self, name: str, labels: dict, max_samples: int = 4096):
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._samples: list = []
        self._max_samples = max_samples

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._samples) < self._max_samples:
            self._samples.append(value)

    @staticmethod
    def _rank(ordered: list, q: float) -> float:
        rank = max(0, min(len(ordered) - 1, round(q / 100.0 * (len(ordered) - 1))))
        return ordered[int(rank)]

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile (q in [0, 100]) over the sample buffer."""
        if not self._samples:
            return 0.0
        return self._rank(sorted(self._samples), q)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._samples = []

    def to_json(self) -> dict:
        # One sort serves all three percentiles: snapshots are taken per
        # fleet scrape, and re-sorting a 4096-sample buffer three times
        # per histogram made scrape cost grow with workload age.
        ordered = sorted(self._samples)
        return {
            "Labels": dict(self.labels),
            "Count": self.count,
            "Sum": self.total,
            "Min": self.min if self.count else 0.0,
            "Max": self.max if self.count else 0.0,
            "Mean": self.mean,
            "P50": self._rank(ordered, 50) if ordered else 0.0,
            "P95": self._rank(ordered, 95) if ordered else 0.0,
            "P99": self._rank(ordered, 99) if ordered else 0.0,
        }


class MetricsRegistry:
    """All instruments of one deployment, keyed by (name, labels)."""

    def __init__(self):
        self._counters: dict[tuple, Counter] = {}
        self._gauges: dict[tuple, Gauge] = {}
        self._histograms: dict[tuple, Histogram] = {}
        # Call-signature memo: (kind, name, raw label items) -> instrument.
        # Label validation (check_label) and the sorted series key are paid
        # once per unique call signature instead of on every increment —
        # the hot path is then two dict hits.  Kept separate from the
        # instrument tables so snapshots never see alias entries.
        self._lookup: dict[tuple, object] = {}

    # -- instrument factories (get-or-create) ---------------------------

    @staticmethod
    def _clean_labels(labels: dict) -> dict:
        return {str(k): check_label(str(k), v) for k, v in labels.items()}

    def _memo_get(self, kind: str, name: str, labels: dict):
        # Most instruments carry zero or one label; only multi-label
        # signatures need the canonicalizing sort.
        if len(labels) < 2:
            memo_key = (kind, name) + tuple(labels.items())
        else:
            memo_key = (kind, name) + tuple(sorted(labels.items()))
        try:
            return memo_key, self._lookup.get(memo_key)
        except TypeError:
            # Unhashable label value: let the slow path raise the proper
            # SensorSafeError from check_label.
            return None, None

    def counter(self, name: str, **labels) -> Counter:
        memo_key, instrument = self._memo_get("c", name, labels)
        if instrument is None:
            clean = self._clean_labels(labels)
            key = _series_key(name, clean)
            instrument = self._counters.get(key)
            if instrument is None:
                instrument = self._counters[key] = Counter(name, clean)
            if memo_key is not None:
                self._lookup[memo_key] = instrument
        return instrument

    def gauge(self, name: str, callback: Optional[Callable] = None, **labels) -> Gauge:
        """Get-or-create; a passed ``callback`` replaces the held one.

        The newest owner wins: a restarted store's new component takes
        over its series instead of leaving it reading the dead instance.
        """
        memo_key, instrument = self._memo_get("g", name, labels)
        if instrument is None:
            clean = self._clean_labels(labels)
            key = _series_key(name, clean)
            instrument = self._gauges.get(key)
            if instrument is None:
                instrument = self._gauges[key] = Gauge(name, clean)
            if memo_key is not None:
                self._lookup[memo_key] = instrument
        if callback is not None:
            instrument.callback = callback
        return instrument

    def histogram(self, name: str, **labels) -> Histogram:
        memo_key, instrument = self._memo_get("h", name, labels)
        if instrument is None:
            clean = self._clean_labels(labels)
            key = _series_key(name, clean)
            instrument = self._histograms.get(key)
            if instrument is None:
                instrument = self._histograms[key] = Histogram(name, clean)
            if memo_key is not None:
                self._lookup[memo_key] = instrument
        return instrument

    # -- reads ----------------------------------------------------------

    def counter_value(self, name: str, **labels) -> int:
        """Current value, 0 if the series was never created."""
        memo_key, instrument = self._memo_get("c", name, labels)
        if instrument is None:
            instrument = self._counters.get(_series_key(name, self._clean_labels(labels)))
            if instrument is not None and memo_key is not None:
                self._lookup[memo_key] = instrument
        return instrument.value if instrument is not None else 0

    def gauge_value(self, name: str, **labels) -> float:
        """Current gauge value (callback honored), 0.0 if never created."""
        memo_key, instrument = self._memo_get("g", name, labels)
        if instrument is None:
            instrument = self._gauges.get(_series_key(name, self._clean_labels(labels)))
            if instrument is not None and memo_key is not None:
                self._lookup[memo_key] = instrument
        return instrument.value if instrument is not None else 0.0

    def sum_counter(self, name: str, **labels) -> int:
        """Sum over every series of ``name`` whose labels contain ``labels``."""
        wanted = self._clean_labels(labels).items()
        return sum(
            c.value
            for c in self._counters.values()
            if c.name == name and wanted <= c.labels.items()
        )

    def series(self, name: str) -> list:
        """Every instrument (any kind) registered under ``name``."""
        out: list = []
        for table in (self._counters, self._gauges, self._histograms):
            out.extend(i for i in table.values() if i.name == name)
        return out

    def snapshot(self) -> dict:
        """JSON-serializable dump of every instrument, sorted for diffing."""

        def dump(table: dict) -> dict:
            grouped: dict[str, list] = {}
            for key in sorted(table, key=repr):
                instrument = table[key]
                grouped.setdefault(instrument.name, []).append(instrument.to_json())
            return grouped

        return {
            "Counters": dump(self._counters),
            "Gauges": dump(self._gauges),
            "Histograms": dump(self._histograms),
        }

    def reset(self, name_prefix: str = "") -> None:
        """Zero instruments whose name starts with ``name_prefix``."""
        for table in (self._counters, self._gauges, self._histograms):
            for instrument in table.values():
                if instrument.name.startswith(name_prefix):
                    instrument.reset()


class _InertCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class _InertGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass


class _InertHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


_INERT_COUNTER = _InertCounter("inert", {})
_INERT_GAUGE = _InertGauge("inert", {})
_INERT_HISTOGRAM = _InertHistogram("inert", {})


class InertRegistry(MetricsRegistry):
    """A disabled hub's registry: every instrument is a shared inert one.

    Writes do nothing and a gauge callback is dropped, so the registry
    never holds a series — the metering twin of the tracer's no-op span.
    Holding no mutable state, one instance is safe to share across
    deployments and threads.
    """

    def counter(self, name: str, **labels) -> Counter:
        """The shared inert counter: ``inc`` does nothing, it reads 0."""
        return _INERT_COUNTER

    def gauge(self, name: str, callback: Optional[Callable] = None, **labels) -> Gauge:
        """The shared inert gauge: ``callback`` is dropped, it reads 0.0."""
        return _INERT_GAUGE

    def histogram(self, name: str, **labels) -> Histogram:
        """The shared inert histogram: ``observe`` does nothing."""
        return _INERT_HISTOGRAM
