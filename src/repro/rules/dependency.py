"""Sensor/context dependency graph and raw-channel closure.

Section 5.1 of the paper: "a sensor can be used to infer multiple context
information (e.g., a respiration sensor is used for stress, conversation,
and smoking).  Therefore, if a contributor chooses not to share such a
sensor or a related context, the raw sensor data will not be shared even
though other relevant contexts are chosen to be shared in raw data form."

We model the dependency as a bipartite graph (channels → contexts they
can reveal), held as its two adjacency maps — every path runs from a
channel to a context in one edge, so reachability is a lookup — and the
enforcement as a *closure*: a raw channel may flow to a consumer only
when **every** context reachable from it is being shared at its raw
ladder level.  Benchmark C4 shows that without this closure a consumer
can re-infer a denied context from leaked raw channels.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.exceptions import UnknownContextError
from repro.sensors.contexts import CONTEXTS, ContextSpec


class DependencyGraph:
    """Bipartite graph: sensor channels → inferable context categories."""

    def __init__(self, contexts: Optional[Dict[str, ContextSpec]] = None):
        self.contexts = dict(contexts or CONTEXTS)
        #: context category -> the channels it can be inferred from.
        self._revealing = {
            spec.name: frozenset(spec.source_channels) for spec in self.contexts.values()
        }
        revealed: dict = {}
        for context_name, channel_names in self._revealing.items():
            for channel_name in channel_names:
                revealed.setdefault(channel_name, set()).add(context_name)
        #: channel -> the context categories it can reveal.
        self._revealed = {name: frozenset(cats) for name, cats in revealed.items()}

    def contexts_revealed_by(self, channel_name: str) -> frozenset:
        """Context categories inferable from a raw channel."""
        return self._revealed.get(channel_name, frozenset())

    def channels_revealing(self, context_name: str) -> frozenset:
        """Raw channels from which a context category can be inferred."""
        try:
            return self._revealing[context_name]
        except KeyError:
            raise UnknownContextError(f"unknown context category: {context_name!r}") from None

    def raw_permitted_channels(
        self, candidate_channels: Iterable[str], raw_shared_contexts: Iterable[str]
    ) -> frozenset:
        """Channels from ``candidate_channels`` safe to share raw.

        ``raw_shared_contexts`` is the set of context categories whose
        effective sharing level is the raw (finest) ladder rung.  A channel
        survives iff every context it can reveal is in that set.  Channels
        that reveal no context (skin temperature) always survive.
        """
        raw_ok = frozenset(raw_shared_contexts)
        out = set()
        for channel_name in candidate_channels:
            revealed = self.contexts_revealed_by(channel_name)
            if revealed <= raw_ok:
                out.add(channel_name)
        return frozenset(out)

    def blocked_channels(
        self, candidate_channels: Iterable[str], non_raw_contexts: Iterable[str]
    ) -> frozenset:
        """Channels that must be withheld given restricted contexts.

        The complement view of :meth:`raw_permitted_channels`, convenient
        for explanations in the web UI ("respiration withheld because
        Smoking is not shared").
        """
        restricted = frozenset(non_raw_contexts)
        out = set()
        for channel_name in candidate_channels:
            if self.contexts_revealed_by(channel_name) & restricted:
                out.add(channel_name)
        return frozenset(out)

    def explain(self, channel_name: str) -> str:
        """Human-readable dependency note for one channel."""
        revealed = sorted(self.contexts_revealed_by(channel_name))
        if not revealed:
            return f"{channel_name} reveals no registered context."
        return f"{channel_name} can reveal: {', '.join(revealed)}."


#: The default graph over the stock context registry.
DEFAULT_DEPENDENCIES = DependencyGraph()
