"""Tests for the sensor/context dependency graph and closure."""

import pytest

from repro.exceptions import UnknownContextError
from repro.rules.dependency import DEFAULT_DEPENDENCIES, DependencyGraph


class TestGraphShape:
    def test_respiration_reveals_three_contexts(self):
        """The paper's canonical example."""
        revealed = DEFAULT_DEPENDENCIES.contexts_revealed_by("Respiration")
        assert revealed == frozenset({"Stress", "Smoking", "Conversation"})

    def test_ecg_reveals_stress_only(self):
        assert DEFAULT_DEPENDENCIES.contexts_revealed_by("ECG") == frozenset({"Stress"})

    def test_channels_revealing_smoking(self):
        assert DEFAULT_DEPENDENCIES.channels_revealing("Smoking") == frozenset(
            {"Respiration"}
        )

    def test_unknown_channel_reveals_nothing(self):
        assert DEFAULT_DEPENDENCIES.contexts_revealed_by("SkinTemp") == frozenset()

    def test_unknown_context_raises(self):
        with pytest.raises(UnknownContextError):
            DEFAULT_DEPENDENCIES.channels_revealing("Mood")


class TestClosure:
    ALL = ("ECG", "Respiration", "MicAmplitude", "AccelX", "GpsLat", "SkinTemp")

    def test_everything_raw_everything_permitted(self):
        permitted = DEFAULT_DEPENDENCIES.raw_permitted_channels(
            self.ALL, {"Activity", "Stress", "Smoking", "Conversation"}
        )
        assert permitted == frozenset(self.ALL)

    def test_paper_smoking_example(self):
        """'If the smoking context is not shared, respiration sensor data
        will not be shared even though stress and conversation are chosen
        to be shared in raw data form.'"""
        permitted = DEFAULT_DEPENDENCIES.raw_permitted_channels(
            self.ALL, {"Activity", "Stress", "Conversation"}  # Smoking restricted
        )
        assert "Respiration" not in permitted
        assert "ECG" in permitted  # ECG only reveals Stress, still raw-shared
        assert "MicAmplitude" in permitted  # mic only reveals Conversation

    def test_restricting_stress_blocks_ecg_and_respiration(self):
        permitted = DEFAULT_DEPENDENCIES.raw_permitted_channels(
            self.ALL, {"Activity", "Smoking", "Conversation"}
        )
        assert "ECG" not in permitted
        assert "Respiration" not in permitted

    def test_restricting_activity_blocks_motion_channels(self):
        permitted = DEFAULT_DEPENDENCIES.raw_permitted_channels(
            self.ALL, {"Stress", "Smoking", "Conversation"}
        )
        assert "AccelX" not in permitted
        assert "GpsLat" not in permitted

    def test_context_free_channels_always_survive(self):
        permitted = DEFAULT_DEPENDENCIES.raw_permitted_channels(self.ALL, set())
        assert permitted == frozenset({"SkinTemp"})

    def test_blocked_channels_complement(self):
        blocked = DEFAULT_DEPENDENCIES.blocked_channels(self.ALL, {"Smoking"})
        assert blocked == frozenset({"Respiration"})

    def test_explain_mentions_contexts(self):
        note = DEFAULT_DEPENDENCIES.explain("Respiration")
        assert "Smoking" in note and "Stress" in note
        assert "no registered context" in DEFAULT_DEPENDENCIES.explain("SkinTemp")


class TestCustomGraph:
    def test_restricted_registry(self):
        from repro.sensors.contexts import CONTEXTS

        graph = DependencyGraph({"Stress": CONTEXTS["Stress"]})
        assert graph.contexts_revealed_by("Respiration") == frozenset({"Stress"})


def test_importing_the_package_loads_no_graph_library():
    """The dependency graph is two dicts: ``import repro`` (which builds
    :data:`DEFAULT_DEPENDENCIES`) leaves ``networkx`` unloaded."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    probe = "import sys, repro, repro.rules.compiler; print('networkx' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"


class TestAdjacency:
    def test_every_edge_reads_the_same_both_ways(self):
        for context, channels in (
            (name, DEFAULT_DEPENDENCIES.channels_revealing(name))
            for name in DEFAULT_DEPENDENCIES.contexts
        ):
            for channel in channels:
                assert context in DEFAULT_DEPENDENCIES.contexts_revealed_by(channel)

    def test_a_channel_name_is_no_context(self):
        with pytest.raises(UnknownContextError):
            DEFAULT_DEPENDENCIES.channels_revealing("Respiration")
