"""The batched kernel against the per-window one it replaced.

``WindowTable`` computes a statistic as a column over every window of a
``collect`` call; labels gate uploads, so each cell must equal — in every
bit — what one ``WindowSamples`` per (window, channel) used to compute.
"""

import contextlib
import dataclasses
import signal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.collection.phone import PhoneConfig, SmartphoneAgent
from repro.context.annotate import ContextAnnotator, annotate_packets
from repro.context.classifiers import ContextClassifier, InferencePipeline
from repro.context.features import FeatureVector, WindowSamples, WindowTable, window_features
from repro.exceptions import ValidationError
from repro.sensors.packets import SensorPacket
from repro.sensors.personas import make_persona
from repro.sensors.simulator import SimulatorConfig, TraceSimulator

from tests.conftest import MONDAY

STATISTICS = ("mean", "std", "minimum", "maximum", "dominant_freq_hz", "energy")


# ---------------------------------------------------------------------------
# The reference: one object, three FFT-sized numpy calls, per (window, channel)
# ---------------------------------------------------------------------------


class ParentSamples:
    """``WindowSamples`` as it stood at 96da933, kept as the reference:
    every statistic is worked out from this window's samples alone."""

    def __init__(self, values, rate_hz):
        self.values, self.rate_hz = values, rate_hz

    def _centered(self):
        arr = np.asarray(self.values, dtype=np.float64)
        return arr - self.mean

    @property
    def mean(self):
        arr = np.asarray(self.values, dtype=np.float64)
        return float(np.add.reduce(arr) / arr.size)

    @property
    def energy(self):
        centered = self._centered()
        return float(np.add.reduce(centered * centered) / centered.size)

    @property
    def std(self):
        return float(np.sqrt(self.energy))

    @property
    def minimum(self):
        return float(np.min(self.values))

    @property
    def maximum(self):
        return float(np.max(self.values))

    @property
    def dominant_freq_hz(self):
        centered = self._centered()
        n = len(centered)
        if n < 8 or self.rate_hz <= 0:
            return 0.0
        spectrum = np.abs(np.fft.rfft(centered))
        spectrum[0] = 0.0
        peak = int(np.argmax(spectrum))
        if spectrum[peak] < 1e-9:
            return 0.0
        return peak * (1.0 / (n * (1.0 / self.rate_hz)))


def parent_windows(packets, width=60_000):
    """``ContextAnnotator.windows`` as it stood at 96da933: one concatenate
    and one ``ParentSamples`` per (window, channel)."""
    out = {packet.start_ms // width: {} for packet in packets}
    for packet in packets:
        name, values = packet.channel_name, packet.values
        start, step = packet.start_ms, packet.interval_ms
        n, first = len(values), 0
        while first < n:
            key = (start + first * step) // width
            stop = min(n, -((start - (key + 1) * width) // step))
            window = out.get(key)
            if window is not None:
                samples = window.get(name)
                if samples is None:
                    samples = window[name] = ParentSamples([], 1000.0 / step)
                samples.values.append(values[first:stop])
            first = stop
    for window in out.values():
        for samples in window.values():
            samples.values = np.concatenate(samples.values)
    return out


def parent_stamp(packets, width=60_000):
    """``(channel, start, labels)`` in the order ``stamp`` returns packets."""
    pipeline = InferencePipeline()
    labels = {key: pipeline.infer(w) for key, w in parent_windows(packets, width).items()}
    return [
        (p.channel_name, p.start_ms, labels[p.start_ms // width])
        for p in sorted(packets, key=lambda p: p.start_ms // width)
    ]


# ---------------------------------------------------------------------------
# (i) Any packet set: equal windows, equal cells, equal labels
# ---------------------------------------------------------------------------

_CHANNELS = ("AccelX", "AccelY", "AccelZ", "Respiration", "MicAmplitude", "ECG")
_PACKET = st.tuples(
    st.sampled_from(_CHANNELS),
    st.integers(min_value=0, max_value=5 * 60_000),  # start, ms after MONDAY
    st.sampled_from([250, 1_000, 5_000, 5_000, 6_000, 45_000]),  # two intervals share a window
    st.sampled_from([1, 1, 2, 7, 8, 9, 12, 12, 12, 40]),  # ragged, incl. 1 and < 8
    st.sampled_from(["noise", "noise", "constant", "ints", "list", "float32"]),
    st.integers(min_value=0, max_value=2**32 - 1),
)


def build_packet(channel, offset, interval, n, kind, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(rng.normal(0, 30), abs(rng.normal(0, 5)), n)
    if kind == "constant":
        values = np.full(n, 0.1)
    elif kind == "ints":
        values = rng.integers(-50, 50, n)
    elif kind == "list":
        values = [round(float(v), 2) for v in values]
    elif kind == "float32":
        values = values.astype(np.float32)
    return SensorPacket(channel, MONDAY + offset, interval, values)


@settings(max_examples=150, deadline=None)
@given(st.lists(_PACKET, max_size=40), st.randoms(use_true_random=False))
def test_windows_and_labels_equal_the_per_window_kernel(drawn, random):
    packets = [build_packet(*args) for args in drawn]
    random.shuffle(packets)  # channels first appear in any order
    ours, parent = ContextAnnotator().windows(packets), parent_windows(packets)
    assert list(ours) == list(parent)
    cells = []
    for key, window in parent.items():
        assert list(ours[key]) == list(window)
        for name, want in window.items():
            got = ours[key][name]
            assert got.rate_hz == want.rate_hz
            assert got.values.dtype == np.float64
            assert got.values.tobytes() == want.values.tobytes()
            cells.extend((got, want, statistic) for statistic in STATISTICS)
    random.shuffle(cells)  # whichever cell is read first fills its column
    for got, want, statistic in cells:
        assert getattr(got, statistic).hex() == getattr(want, statistic).hex()
        assert type(getattr(got, statistic)) is float
    stamped = ContextAnnotator().stamp(packets)
    assert [(p.channel_name, p.start_ms, p.context) for p in stamped] == parent_stamp(packets)


def simulated_day(seed=5, rate_scale=0.05):
    persona = make_persona("alice", commute_mode="Drive", stress_prob=0.25)
    trace = TraceSimulator(persona, SimulatorConfig(rate_scale=rate_scale), seed=seed).run(MONDAY)
    return trace.all_packets_sorted()


def test_a_simulated_day_has_the_parent_s_cells_and_labels():
    packets = simulated_day(seed=29)
    ours, parent = ContextAnnotator().windows(packets), parent_windows(packets)
    assert list(ours) == list(parent) and len(ours) > 1_000
    for key, window in parent.items():
        for name, want in window.items():
            for statistic in STATISTICS:
                assert getattr(ours[key][name], statistic).hex() == getattr(want, statistic).hex()
    stamped = ContextAnnotator().stamp(packets)
    assert [(p.channel_name, p.start_ms, p.context) for p in stamped] == parent_stamp(packets)


# ---------------------------------------------------------------------------
# (ii) The numeric work is per (channel, window length), not per window
# ---------------------------------------------------------------------------


def fft_calls(packets) -> int:
    with mock.patch("numpy.fft.rfft", wraps=np.fft.rfft) as rfft:
        ContextAnnotator().stamp(packets)
    return rfft.call_count


def test_one_fft_per_accelerometer_axis_and_window_length():
    day = simulated_day()
    assert len({p.start_ms // 60_000 for p in day}) > 1_000  # the parent: 3 FFTs each
    assert 3 <= fft_calls(day) <= 64
    batch = [p for p in day if 8 * 3_600_000 <= p.start_ms - MONDAY < 8 * 3_600_000 + 600_000]
    assert len({p.start_ms // 60_000 for p in batch}) >= 8
    assert 3 <= fft_calls(batch) <= 6


def tables_made(run):
    """``[(shape, rate_hz)]`` of every ``WindowTable`` built during ``run()``."""
    made, init = [], WindowTable.__init__

    def spy(self, rows, rate_hz):
        made.append((rows.shape, rate_hz))
        init(self, rows, rate_hz)

    with mock.patch.object(WindowTable, "__init__", spy):
        return made, run()


def ten_minutes(day):
    return [p for p in day if 8 * 3_600_000 <= p.start_ms - MONDAY < 8 * 3_600_000 + 600_000]


@pytest.mark.parametrize("span", ["day", "ten minutes"])
def test_a_call_tables_only_what_its_classifiers_read_and_shares_label_dicts(span):
    day = simulated_day(seed=29)
    packets = day if span == "day" else ten_minutes(day)
    read = {"AccelX", "AccelY", "AccelZ", "Respiration", "MicAmplitude"}
    made, stamped = tables_made(lambda: ContextAnnotator().stamp(packets))
    # No table for ECG (0.4 Hz here) or GPS (one fix in 300 s): a row per
    # (window, channel) cell of a channel some classifier reads.
    cells = ContextAnnotator().windows(packets)
    assert {rate for _, rate in made} == {1000.0 / p.interval_ms for p in packets
                                          if p.channel_name in read}  # fmt: skip
    assert sum(rows for (rows, _), _ in made) == sum(
        name in read for window in cells.values() for name in window
    )
    # One label dict per distinct label set, whatever the number of windows.
    label_sets = {tuple(p.context.items()) for p in stamped}
    assert len({id(p.context) for p in stamped}) == len(label_sets) < len(cells)
    assert [(p.channel_name, p.start_ms, p.context) for p in stamped] == parent_stamp(packets)
    assert InferencePipeline().channels == read


def test_a_classifier_that_declares_no_channels_sees_every_channel():
    assert ContextClassifier.reads is None
    assert InferencePipeline([RangeClassifier(), *InferencePipeline().classifiers]).channels is None
    assert InferencePipeline([]).channels == frozenset()
    packets = ten_minutes(simulated_day(seed=29))
    annotator = ContextAnnotator(pipeline=InferencePipeline([RangeClassifier()]))
    made, _ = tables_made(lambda: annotator.stamp(packets))
    assert {rate for _, rate in made} == {1000.0 / p.interval_ms for p in packets}


# ---------------------------------------------------------------------------
# (iii) A row reads like a FeatureVector, whatever a classifier asks of it
# ---------------------------------------------------------------------------


class RangeClassifier(ContextClassifier):
    """Reads the statistics no stock classifier does."""

    category = "Range"
    required_channels = ("Respiration",)

    def __init__(self):
        self.seen = []

    def _classify(self, features):
        resp = features["Respiration"]
        self.seen.append((resp.minimum, resp.maximum, resp.peak_to_peak, resp.energy))
        return "Wide" if resp.peak_to_peak > 4.0 else "Narrow"


def test_a_custom_classifier_reads_window_features_values(weekday_trace):
    packets = [p for p in weekday_trace.all_packets_sorted() if p.start_ms < MONDAY + 3_600_000]
    classifier = RangeClassifier()
    annotator = ContextAnnotator(pipeline=InferencePipeline([classifier]))
    stamped = annotator.annotate(packets)
    windows = annotator.windows(packets)
    eager = [window_features(w["Respiration"].values, 4.0) for w in windows.values()]
    assert classifier.seen == [
        (fv.minimum, fv.maximum, fv.peak_to_peak, fv.energy) for fv in eager
    ]
    assert {p.context["Range"] for p in stamped} <= {"Wide", "Narrow"}


def test_window_samples_has_every_public_name_of_a_feature_vector():
    samples = WindowSamples([1.0, 4.0, 2.0], 4.0)
    eager = window_features([1.0, 4.0, 2.0], 4.0)
    names = [field.name for field in dataclasses.fields(FeatureVector)]
    assert sorted(names) == sorted(STATISTICS)
    for name in (*names, "peak_to_peak"):
        assert getattr(samples, name) == getattr(eager, name)
    assert samples.peak_to_peak == 3.0


def test_an_empty_classifier_list_means_no_labels(weekday_trace):
    assert InferencePipeline(classifiers=[]).classifiers == []
    assert len(InferencePipeline().classifiers) == 4
    annotator = ContextAnnotator(pipeline=InferencePipeline(classifiers=[]))
    for packet in annotator.annotate(weekday_trace.all_packets_sorted()[:50]):
        assert packet.context == {}


# ---------------------------------------------------------------------------
# A window width that cannot advance is refused at construction
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def deadline(seconds):
    """Fail instead of hanging: the parent commit walks a negative window forever."""

    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("window_ms", [0, -60_000])
def test_a_non_positive_window_is_refused_where_it_is_configured(window_ms):
    one = [SensorPacket("ECG", MONDAY, 250, [1.0, 2.0])]
    with deadline(20), pytest.raises(ValidationError):
        ContextAnnotator(window_ms=window_ms).annotate(one)
    with deadline(20), pytest.raises(ValidationError):
        annotate_packets(one, window_ms=window_ms)
    with pytest.raises(ValidationError):
        SmartphoneAgent("alice", "alice-store", client=None, config=PhoneConfig(window_ms=window_ms))
