"""Observability: metrics, traces, and the telemetry redaction boundary.

The :class:`Observability` hub bundles one
:class:`~repro.obs.metrics.MetricsRegistry` and one
:class:`~repro.obs.tracing.Tracer` for a deployment.  It hangs off the
:class:`~repro.net.transport.Network` (every component already shares the
network), so stores, the broker, phones, and clients all report into the
same registry and the same trace store.

Telemetry is privacy-safe by construction: every span attribute and every
metric label passes the redaction boundary in :mod:`repro.obs.redaction`.

Whether telemetry is on is decided here and nowhere else.  A disabled hub
(``Observability(enabled=False)``) hands out inert instruments and the
no-op span, so components meter unconditionally; a component built
without a hub meters into the shared :data:`NOOP_OBS`.  Only the three
subsystems that do real work beyond metering — :class:`SloTracker`,
:class:`QueryCostLog` and the broker's fleet aggregator — check
``enabled`` themselves.
"""

from __future__ import annotations

from repro.obs.costs import CostRecord, QueryCostLog
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    InertRegistry,
    MetricsRegistry,
)
from repro.obs.redaction import (
    REDACTED,
    check_label,
    redact_attribute,
    redact_attributes,
)
from repro.obs.slo import SloThresholds, SloTracker
from repro.obs.tracing import TRACEPARENT, Span, Tracer


class Observability:
    """Metrics + tracing + privacy SLOs + query costs for one deployment."""

    def __init__(self, clock=None, *, enabled: bool = True):
        self.enabled = enabled
        self.metrics = MetricsRegistry() if enabled else InertRegistry()
        self.tracer = Tracer(clock, enabled=enabled)
        self.slo = SloTracker(self, clock)
        self.costs = QueryCostLog(self, clock)

    def snapshot(self) -> dict:
        """JSON-serializable metrics dump (traces via ``tracer.export_json``)."""
        return self.metrics.snapshot()

    def reset(self) -> None:
        self.metrics.reset()
        self.tracer.reset()
        self.slo.reset()
        self.costs.reset()


#: The one disabled hub every component built without a hub meters into.
#: Its registry holds no series and its tracer finishes no span, so it
#: keeps no mutable state and any thread may share it.
NOOP_OBS = Observability(enabled=False)


def noop_observability() -> Observability:
    """The shared disabled hub: inert instruments and no-op spans.

    What a component running outside any deployment (a bare engine in a
    unit test, the broker's per-record search engines, the phone's gating
    engines) meters into, so instrumentation code never null-checks.
    """
    return NOOP_OBS


__all__ = [
    "Observability",
    "NOOP_OBS",
    "noop_observability",
    "CostRecord",
    "QueryCostLog",
    "SloThresholds",
    "SloTracker",
    "MetricsRegistry",
    "InertRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Tracer",
    "Span",
    "TRACEPARENT",
    "REDACTED",
    "check_label",
    "redact_attribute",
    "redact_attributes",
]
