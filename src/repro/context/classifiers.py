"""Context classifiers over windowed features.

Each classifier maps per-channel :class:`FeatureVector` s for one time
window to a label in its category's vocabulary, or None when its input
channels are absent (a window with no respiration samples cannot be
classified for smoking).  Decision boundaries sit between the simulator's
signal-model operating points, giving high — but deliberately not perfect —
accuracy: windows straddling ground-truth state changes mix two regimes,
exactly the noise source a real deployment has.

The activity classifier is nearest-centroid over (std, dominant frequency)
of the accelerometer magnitude, with the centroids taken from the same
per-mode table the simulator uses.  The physiological classifiers are
threshold rules on breathing/heart-rate statistics, following the shape of
the AutoSense stress/smoking detectors the paper cites.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional

from repro.context.features import FeatureVector

# Operating points (must track repro.sensors.simulator's signal models).
_ACTIVITY_CENTROIDS = {
    # mode: (combined 3-axis std incl. periodic power, dominant freq Hz).
    # std = sqrt(3 * (noise^2 + amp^2 / 2)) from the simulator's table.
    "Still": (0.09, 0.0),
    "Drive": (0.86, 0.3),
    "Walk": (1.80, 1.8),
    "Bike": (2.40, 1.2),
    "Run": (4.22, 2.8),
}
_RESP_SMOKING_MAX_MEAN = 11.0  # smoking rate 8 vs baseline 14
_RESP_STRESS_MIN_MEAN = 16.5  # stressed rate 19 vs baseline 14
_MIC_CONVERSATION_MIN_DB = -32.0  # conversation -22 vs quiet -60 / drive -38
_RESP_CONVERSATION_MIN_STD = 1.8  # irregular breathing while talking


class ContextClassifier:
    """Base class: classify one window of per-channel features."""

    #: Category name this classifier produces labels for.
    category = "abstract"
    #: Channels whose features must be present.
    required_channels: tuple = ()
    #: Channels whose features it reads; None (undeclared) means every one.
    reads: Optional[tuple] = None

    def classify(self, features: Mapping[str, FeatureVector]) -> Optional[str]:
        for name in self.required_channels:
            if name not in features:
                return None
        return self._classify(features)

    def _classify(self, features: Mapping[str, FeatureVector]) -> str:
        raise NotImplementedError


class ActivityClassifier(ContextClassifier):
    """Transportation mode from accelerometer magnitude statistics."""

    category = "Activity"
    required_channels = reads = ("AccelX", "AccelY", "AccelZ")

    def _classify(self, features: Mapping[str, FeatureVector]) -> str:
        # Combine the three axes: total non-gravity variance and the
        # strongest dominant frequency across axes.
        x, y, z = features["AccelX"], features["AccelY"], features["AccelZ"]
        std = math.sqrt(x.std ** 2 + y.std ** 2 + z.std ** 2)
        freq = max(x.dominant_freq_hz, y.dominant_freq_hz, z.dominant_freq_hz)
        best_mode, best_dist = "Still", float("inf")
        for mode, (c_std, c_freq) in _ACTIVITY_CENTROIDS.items():
            # std carries most of the signal; frequency is down-weighted
            # because low sampling rates alias the faster gaits.
            dist = (std - c_std) ** 2 + 0.3 * (freq - c_freq) ** 2
            if dist < best_dist:
                best_mode, best_dist = mode, dist
        return best_mode


class SmokingClassifier(ContextClassifier):
    """Smoking episodes: slow, deep breathing signature."""

    category = "Smoking"
    required_channels = reads = ("Respiration",)

    def _classify(self, features: Mapping[str, FeatureVector]) -> str:
        resp = features["Respiration"]
        return "Smoking" if resp.mean < _RESP_SMOKING_MAX_MEAN else "NotSmoking"


class StressClassifier(ContextClassifier):
    """Stress from elevated breathing rate, corroborated by heart rate.

    Exercise also raises heart rate, so the breathing-rate test leads and
    the ECG (heart-rate proxy) only breaks ties: high respiration alone is
    enough, matching how the simulator couples stress to respiration.
    """

    category = "Stress"
    required_channels = reads = ("Respiration",)

    def _classify(self, features: Mapping[str, FeatureVector]) -> str:
        resp = features["Respiration"]
        if resp.mean < _RESP_SMOKING_MAX_MEAN:
            return "NotStressed"  # smoking signature, not stress
        return "Stressed" if resp.mean > _RESP_STRESS_MIN_MEAN else "NotStressed"


class ConversationClassifier(ContextClassifier):
    """Conversation from microphone amplitude or breathing irregularity.

    Either sensor suffices (the paper: "microphones and respiration
    sensors can be used to infer whether a data contributor is in
    conversation"), so the classifier degrades gracefully when one channel
    is disabled by rule-aware collection.
    """

    category = "Conversation"
    required_channels = ()
    reads = ("MicAmplitude", "Respiration")

    def classify(self, features: Mapping[str, FeatureVector]) -> Optional[str]:
        mic = features.get("MicAmplitude")
        resp = features.get("Respiration")
        if mic is None and resp is None:
            return None
        return self._classify(features)

    def _classify(self, features: Mapping[str, FeatureVector]) -> str:
        mic = features.get("MicAmplitude")
        if mic is not None and mic.mean > _MIC_CONVERSATION_MIN_DB:
            return "Conversation"
        resp = features.get("Respiration")
        if (
            resp is not None
            and resp.std > _RESP_CONVERSATION_MIN_STD
            and resp.mean >= _RESP_SMOKING_MAX_MEAN  # smoking wave is not talk
        ):
            return "Conversation"
        return "NotConversation"


class InferencePipeline:
    """Runs every registered classifier over a window's features."""

    def __init__(self, classifiers: Optional[list] = None):
        self.classifiers = classifiers if classifiers is not None else [
            ActivityClassifier(),
            StressClassifier(),
            SmokingClassifier(),
            ConversationClassifier(),
        ]

    @property
    def channels(self) -> Optional[frozenset]:
        """Every channel some classifier reads, or None when one reads all."""
        reads = [clf.reads for clf in self.classifiers]
        return None if None in reads else frozenset(name for names in reads for name in names)

    def infer(self, features: Mapping[str, FeatureVector]) -> dict:
        """Labels keyed by category; categories lacking input are omitted."""
        labels = {}
        for clf in self.classifiers:
            label = clf.classify(features)
            if label is not None:
                labels[clf.category] = label
        return labels
