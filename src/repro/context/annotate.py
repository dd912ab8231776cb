"""Annotating sensor data with inferred context labels.

Section 6: "the sensor data are annotated with the context information and
uploaded to remote data stores."  The annotator cuts the samples it is
handed into aligned time windows, runs the inference pipeline over each
window's samples across channels, and emits the same packets with their
``context`` field replaced by the *inferred* labels.  The numeric work is
per call, not per window: every window of one ``collect`` is a row of a
:class:`~repro.context.features.WindowTable` per (channel, window length),
whether the call holds ten minutes or a day.

The annotator is the phone-side component; the smartphone agent
(:mod:`repro.collection.phone`) wires it between sensing and upload, and
also consults it for rule-aware collection decisions.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

import numpy as np

from repro.context.classifiers import InferencePipeline
from repro.context.features import WindowSamples, WindowTable
from repro.exceptions import ValidationError
from repro.sensors.packets import SensorPacket


class ContextAnnotator:
    """Fixed-window context inference over interleaved packets.

    A window is a span of time: window ``k`` is inferred from every sample
    whose timestamp falls in ``[k * window_ms, (k + 1) * window_ms)``,
    whichever packet carried it, so a packet that outlasts the window
    feeds each window it crosses exactly its own rows.  A packet is
    stamped with the labels of the window holding its *first* sample;
    packets are never split, re-timed or reordered within their stream.
    Only the packets of one call are seen (stateless across calls), so the
    first window of an upload may be inferred from part of its samples.
    """

    def __init__(self, window_ms: int = 60_000, pipeline: Optional[InferencePipeline] = None):
        if window_ms <= 0:
            raise ValidationError(f"context window must be positive: {window_ms} ms")
        self.window_ms = window_ms
        self.pipeline = pipeline or InferencePipeline()

    def windows(self, packets: Iterable[SensorPacket]) -> dict:
        """Which samples each window sees: ``{key: {channel: samples}}``.

        The one place samples are assigned to windows.  Sample ``i`` of a
        packet sits at ``start_ms + i * interval_ms``, so the rows inside a
        window are one contiguous run ending at a ceiling division (as in
        ``WaveSegment._sample_range``); a channel's runs are collected as
        slices in packet order.  Only windows in which some packet starts
        get an entry — no other window's labels are ever stamped on
        anything.  A channel's windows of equal sample count (and equal
        ``rate_hz``, which is that of the window's first run) are then laid
        out as the rows of one :class:`WindowTable` — one concatenate per
        group of the call — and each window gets its row.
        """
        packets = list(packets)
        width = self.window_ms
        out: dict = {packet.start_ms // width: {} for packet in packets}
        for packet in packets:
            name, values = packet.channel_name, packet.values
            start, step = packet.start_ms, packet.interval_ms
            n, first = len(values), 0
            while first < n:
                key = (start + first * step) // width
                stop = -((start - (key + 1) * width) // step)
                if stop > n:
                    stop = n
                window = out.get(key)
                if window is not None:
                    window.setdefault(name, (step, []))[1].append(values[first:stop])
                first = stop
        groups: dict = {}
        for window in out.values():
            for name, (step, runs) in window.items():
                groups.setdefault((name, step, sum(map(len, runs))), []).append((window, runs))
        for (name, step, count), members in groups.items():
            rows = np.concatenate([run for _, runs in members for run in runs])
            table = WindowTable(rows.reshape(len(members), count), 1000.0 / step)
            for row, (window, _) in enumerate(members):
                window[name] = table.row(row)
        return out

    def infer_window(self, samples: Mapping[str, WindowSamples]) -> dict:
        """Infer labels for one window from its per-channel samples."""
        return self.pipeline.infer(samples)

    def stamp(self, packets: Iterable[SensorPacket]) -> list:
        """The packets re-stamped with the labels of their first sample's
        window, ordered by window and, within one, as they were given.  A
        re-stamp is a re-label (:meth:`SensorPacket.relabeled`): the packet's
        samples are not checked or copied again, and the packets of one
        window share its label dict."""
        packets = list(packets)
        width = self.window_ms
        labels = {key: self.infer_window(w) for key, w in self.windows(packets).items()}
        return [
            packet.relabeled(labels[packet.start_ms // width])
            for packet in sorted(packets, key=lambda p: p.start_ms // width)
        ]

    def annotate(self, packets: Iterable[SensorPacket]) -> list:
        """Return the packets re-stamped with inferred context labels,
        ordered by start time."""
        return sorted(self.stamp(packets), key=lambda p: (p.start_ms, p.channel_name))


def annotate_packets(
    packets: Iterable[SensorPacket], window_ms: int = 60_000
) -> list:
    """One-shot convenience wrapper around :class:`ContextAnnotator`."""
    return ContextAnnotator(window_ms=window_ms).annotate(packets)


def label_accuracy(packets: Iterable[SensorPacket], truth_lookup) -> dict:
    """Score inferred packet labels against ground truth.

    ``truth_lookup(ts_ms)`` must return the ground-truth
    :class:`~repro.sensors.personas.ActivityState` (or None).  Returns per-
    category accuracy over packets that carry both an inferred label and a
    ground-truth state — the metric used by benchmark C4 and the context
    tests.
    """
    correct: dict[str, int] = {}
    total: dict[str, int] = {}
    for packet in packets:
        state = truth_lookup(packet.start_ms)
        if state is None:
            continue
        truth = state.context_labels()
        for category, label in packet.context.items():
            if category not in truth:
                continue
            total[category] = total.get(category, 0) + 1
            if truth[category] == label:
                correct[category] = correct.get(category, 0) + 1
    return {
        category: correct.get(category, 0) / count
        for category, count in total.items()
        if count
    }
