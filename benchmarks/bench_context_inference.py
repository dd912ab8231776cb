"""Supporting — context-inference quality and cost.

Not a paper figure, but the foundation every Context condition stands on:
the paper's rules ("don't share stress while driving") are only meaningful
if the phone's inference recovers the labels.  This bench scores each
classifier against the simulator's ground truth over a full day for three
persona shapes, and times the annotation pipeline (the phone-side hot
path).
"""

from repro.context.annotate import ContextAnnotator, annotate_packets, label_accuracy
from repro.sensors.personas import make_persona
from repro.sensors.simulator import SimulatorConfig, TraceSimulator

from conftest import report_table
from helpers import MONDAY, alice_day


def day_for(name, **kwargs):
    persona = make_persona(name, **kwargs)
    return TraceSimulator(persona, SimulatorConfig(rate_scale=0.25), seed=13).run(
        MONDAY, days=1
    )


def test_inference_accuracy_by_persona(benchmark):
    personas = {
        "driver (stressful commute)": dict(commute_mode="Drive", stress_prob=0.4),
        "cyclist (calm)": dict(commute_mode="Bike", stress_prob=0.1),
        "smoker": dict(commute_mode="Drive", stress_prob=0.3, smoker=True),
    }
    rows = []
    for label, kwargs in personas.items():
        trace = day_for(label.split()[0], **kwargs)
        annotated = annotate_packets(trace.all_packets_sorted(), window_ms=60_000)
        accuracy = label_accuracy(annotated, trace.state_at)
        rows.append(
            [
                label,
                f"{accuracy.get('Activity', 0):.3f}",
                f"{accuracy.get('Stress', 0):.3f}",
                f"{accuracy.get('Conversation', 0):.3f}",
                f"{accuracy.get('Smoking', 0):.3f}",
            ]
        )
        assert accuracy["Activity"] > 0.85
        assert accuracy["Stress"] > 0.9
        assert accuracy["Smoking"] > 0.9
        assert accuracy["Conversation"] > 0.85
    report_table(
        "Supporting — Context-inference accuracy vs ground truth (1 day/persona)",
        ["Persona", "Activity", "Stress", "Conversation", "Smoking"],
        rows,
        notes="errors concentrate at ground-truth state boundaries, where a "
        "window mixes two behaviours",
    )

    # Timed: annotating one hour of packets.
    trace = day_for("timing", commute_mode="Drive")
    packets = [p for p in trace.all_packets_sorted() if p.start_ms < MONDAY + 3_600_000]
    annotator = ContextAnnotator(window_ms=60_000)
    benchmark(lambda: annotator.annotate(packets))


def test_label_coverage_by_rate_scale(benchmark):
    """A context rule can only match a packet that carries its category:
    coverage (share of packets labelled) beside accuracy, at the rate
    scales the repo runs at."""
    categories = ("Activity", "Stress", "Smoking", "Conversation")
    rows = []
    for rate_scale in (0.05, 0.2, 1.0):
        _, trace = alice_day(rate_scale=rate_scale, seed=1)
        annotated = annotate_packets(trace.all_packets_sorted())
        accuracy = label_accuracy(annotated, trace.state_at)
        row = [rate_scale]
        for category in categories:
            coverage = sum(category in p.context for p in annotated) / len(annotated)
            row.append(f"{coverage:.3f} / {accuracy[category]:.4f}")
            assert coverage == 1.0, (rate_scale, category)
        rows.append(row)
    report_table(
        "Supporting — Label coverage / accuracy by rate_scale (alice, seed 1, 1 day)",
        ["rate_scale", *categories],
        rows,
        notes="coverage = share of packets carrying the category; a window is a "
        "span of time, so every sensed channel feeds every minute it has samples in",
    )
    # Timed: one hour at hardware rates (the last trace of the loop).
    packets = [p for p in trace.all_packets_sorted() if p.start_ms < MONDAY + 3_600_000]
    benchmark.pedantic(lambda: annotate_packets(packets), rounds=1, iterations=1)


def test_inference_degrades_gracefully_without_channels(benchmark):
    """Rule-aware collection can disable channels; inference must keep
    producing labels for whatever remains."""
    persona = make_persona("partial", commute_mode="Drive")
    full = TraceSimulator(persona, SimulatorConfig(rate_scale=0.25), seed=3).run(
        MONDAY, days=1
    )
    no_mic = TraceSimulator(
        persona,
        SimulatorConfig(
            rate_scale=0.25,
            channels=("AccelX", "AccelY", "AccelZ", "ECG", "Respiration"),
        ),
        seed=3,
    ).run(MONDAY, days=1)

    rows = []
    for label, trace in (("all channels", full), ("microphone disabled", no_mic)):
        annotated = annotate_packets(trace.all_packets_sorted(), window_ms=60_000)
        accuracy = label_accuracy(annotated, trace.state_at)
        rows.append(
            [
                label,
                f"{accuracy.get('Activity', 0):.3f}",
                f"{accuracy.get('Conversation', 0):.3f}" if "Conversation" in accuracy else "-",
            ]
        )
    report_table(
        "Supporting — Graceful degradation (conversation falls back to respiration)",
        ["Channels", "Activity acc.", "Conversation acc."],
        rows,
    )
    annotated = annotate_packets(no_mic.all_packets_sorted(), window_ms=60_000)
    accuracy = label_accuracy(annotated, no_mic.state_at)
    assert accuracy.get("Conversation", 0) > 0.6  # respiration-only fallback

    benchmark(lambda: annotate_packets(no_mic.all_packets_sorted()[:500]))
