"""Annotating sensor data with inferred context labels.

Section 6: "the sensor data are annotated with the context information and
uploaded to remote data stores."  The annotator cuts the samples it is
handed into aligned time windows, runs the inference pipeline over each
window's samples across channels, and emits the same packets with their
``context`` field replaced by the *inferred* labels.  One ``stamp`` call
does its work at three grains, whether it holds ten minutes or a day:

* **per call**, a fixed number of array operations: every packet's runs
  of samples into windows, their order, and one gather of the samples of
  every table;
* **per table** — one per stretch of a channel's windows of equal rate and
  sample count (one per channel and window length when its stream is
  regular), and only for the channels some classifier reads — a reshape,
  and a column per statistic the classifiers ask for
  (:class:`~repro.context.features.WindowTable`);
* **per window**, plain Python: the classifiers read each cell's
  statistics as floats, and windows with equal labels share one dict.

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
        """Which samples each window sees, every channel's, as :meth:`stamp`
        assigns them: ``{key: {channel: WindowSamples}}``."""
        return self._windows(list(packets), None)[0]

    def _windows(self, packets: list, channels: Optional[frozenset]) -> tuple:
        """The one place samples are assigned to windows: ``({key: {channel:
        WindowSamples}}, [WindowTable])``.  Every window in which some packet
        starts gets an entry, and no other (no other window's labels are
        ever stamped on anything); it holds the ``channels`` named (None:
        every one) in the order their first samples were given.

        Sample ``i`` of a packet sits at ``start_ms + i * interval_ms``, so
        the rows a packet gives a window are one contiguous run between two
        ceiling divisions (as in ``WaveSegment._sample_range``).  Every run
        of the call is found by array arithmetic at once, and the runs are
        ordered stably by (channel, window): a cell is a stretch of equal
        pairs, its runs in packet order, at the ``rate_hz`` of its first.
        A stretch of a channel's cells of equal rate and sample count — all
        its windows but a partial first or last one, when the stream is
        regular — is the rows of one :class:`WindowTable`, and one indexing
        operation gathers the samples of every table.
        """
        width = self.window_ms
        out = {packet.start_ms // width: {} for packet in packets}
        if channels is not None:
            packets = [p for p in packets if p.channel_name in channels]
        if not packets:
            return out, []
        names: dict = {}
        start, step, count, channel = np.array(
            [
                [p.start_ms for p in packets],
                [p.interval_ms for p in packets],
                [len(p.values) for p in packets],
                [names.setdefault(p.channel_name, len(names)) for p in packets],
            ],
            dtype=np.int64,
        )
        # A packet has a run per window from its first sample's to its
        # last's, or one per sample when they lie more than a window apart;
        # the runs of the call, in order, partition its samples.
        first_key = start // width
        runs = np.minimum(count, (start + (count - 1) * step) // width - first_key + 1)
        nth = _ranges(runs, 0)
        offset = (count.cumsum() - count).repeat(runs)
        start, step, channel = start.repeat(runs), step.repeat(runs), channel.repeat(runs)
        key = np.maximum(first_key.repeat(runs) + nth, (start + nth * step) // width)
        offset += np.maximum(0, -((start - key * width) // step))
        length = np.concatenate((offset[1:], [count.sum()])) - offset
        # Order the runs stably by (channel, rank of their window among
        # those in which some packet starts); the other windows' go last.
        starts = np.array(sorted(out), dtype=np.int64)
        rank = starts.searchsorted(key)
        kept = starts.searchsorted(key, "right") > rank
        rank += channel * (len(starts) + 1)
        rank[~kept] = len(names) * (len(starts) + 1)
        order = rank.argsort(kind="stable")[: np.count_nonzero(kept)]
        rank, length, offset = rank[order], length[order], offset[order]
        samples = np.concatenate([p.values for p in packets])[_ranges(length, offset)]
        head = np.concatenate(([0], (rank[1:] != rank[:-1]).nonzero()[0] + 1))
        size, first = np.add.reduceat(length, head), order[head]
        step, channel, key = step[first], channel[first], key[first]
        edges = (channel[1:] != channel[:-1]) | (step[1:] != step[:-1]) | (size[1:] != size[:-1])
        edges = [0, *(edges.nonzero()[0] + 1), len(head)]
        # Plain Python from here: per table, then per cell.
        tables, cells, at = [], [], 0
        for lo, hi in zip(edges, edges[1:]):
            rows = samples[at : at + (hi - lo) * size[lo]].reshape(hi - lo, -1)
            tables.append(WindowTable(rows, 1000.0 / int(step[lo])))
            cells += tables[-1].cells
            at += rows.size
        # Each cell into its window in the order of first runs, so a window
        # lists its channels in the order their first samples were given.
        channel_name = list(names)
        order = first.argsort(kind="stable")  # the runs' sort: no second kernel paged in
        for window, name, cell in zip(key[order], channel[order], map(cells.__getitem__, order)):
            out[window][channel_name[name]] = cell
        return out, tables

    def infer_window(self, samples: Mapping[str, WindowSamples]) -> dict:
        """Infer labels for one window from its per-channel samples."""
        return self.pipeline.infer(samples)

    def stamp(self, packets: Iterable[SensorPacket]) -> list:
        """The packets re-stamped with the labels of their first sample's
        window, ordered by window and, within one, as they were given.  A
        re-stamp is a re-label (:meth:`SensorPacket.relabeled`): the packet's
        samples are not checked or copied again, and the packets of windows
        with equal labels share one label dict.  Only the channels some
        classifier reads are laid out in tables."""
        packets = list(packets)
        width = self.window_ms
        infer = self.pipeline.infer
        labels, shared = {}, {}
        windows, tables = self._windows(packets, self.pipeline.channels)
        for key, window in windows.items():
            found = infer(window)
            labels[key] = shared.setdefault(tuple(found.items()), found)
        for table in tables:  # a table and its rows refer to each other:
            table.cells.clear()  # free the call's samples now, not at a collection
        return [
            packet.relabeled(labels[packet.start_ms // width])
            for packet in sorted(packets, key=lambda p: p.start_ms // width)
        ]

    def annotate(self, packets: Iterable[SensorPacket]) -> list:
        """Return the packets re-stamped with inferred context labels,
        ordered by start time."""
        return sorted(self.stamp(packets), key=lambda p: (p.start_ms, p.channel_name))


def _ranges(lengths: np.ndarray, firsts) -> np.ndarray:
    """``firsts[i] + arange(lengths[i])`` for every ``i``, concatenated."""
    ends = lengths.cumsum()
    out = (ends - lengths - firsts).repeat(lengths)
    return np.subtract(np.arange(ends[-1]), out, out=out)


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
