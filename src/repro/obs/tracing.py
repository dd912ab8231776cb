"""Span tracer with in-process trace-context propagation.

One consumer query becomes one *trace tree*: the client span
(:meth:`~repro.net.client.HttpClient.post`) injects a ``Traceparent``
header, :meth:`~repro.net.transport.Network.request` extracts it and
opens a server span, and the handlers running inside open child spans for
the rule engine and the segment scan.  Because the simulated network is
synchronous, "current span" is a plain stack — the same shape a
contextvar would give an async runtime.

Span attributes pass through the redaction boundary
(:func:`~repro.obs.redaction.redact_attribute`) at every export surface
(:meth:`Span.to_json`, the CLI trace render); no sensor sample value or
raw coordinate can reach a dumped trace.  Setting an attribute is a plain
dict write — redaction runs where data leaves the process, keeping the
request hot path cheap.  Durations are measured twice: wall microseconds
(``perf_counter``, the real compute cost) and simulated milliseconds (the
:class:`~repro.net.faults.SimClock`, which backoff and outages advance).

Ids are deterministic per tracer (a counter, not entropy), so tests and
replayed fault schedules produce byte-identical trace dumps.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.obs.redaction import redact_attributes

#: Header key used to propagate trace context through Network requests.
TRACEPARENT = "Traceparent"


class Span:
    """One timed operation within a trace."""

    __slots__ = (
        "tracer",
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "attributes",
        "status",
        "start_sim_ms",
        "duration_sim_ms",
        "duration_us",
        "_start_pc",
        "_finished",
    )

    def __init__(
        self,
        tracer: "Tracer",
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        name: str,
        start_sim_ms: int,
    ):
        self.tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attributes: dict = {}
        self.status = "ok"
        self.start_sim_ms = start_sim_ms
        self.duration_sim_ms = 0
        self.duration_us = 0.0
        self._start_pc = time.perf_counter()
        self._finished = False

    def set_attribute(self, key: str, value: object) -> None:
        """Attach one attribute (redaction applies at export, not here)."""
        self.attributes[str(key)] = value

    def set_attributes(self, **attrs) -> None:
        self.attributes.update(attrs)  # kwargs keys are already strings

    def set_error(self, message: str) -> None:
        self.status = "error"
        self.set_attribute("error_message", str(message)[:120])

    def to_json(self) -> dict:
        return {
            "TraceId": self.trace_id,
            "SpanId": self.span_id,
            "ParentId": self.parent_id,
            "Name": self.name,
            "Status": self.status,
            "StartSimMs": self.start_sim_ms,
            "DurationSimMs": self.duration_sim_ms,
            "DurationUs": round(self.duration_us, 3),
            # THE redaction boundary for spans: attributes are stored raw
            # and scrubbed here, on the way out, so no write path (not
            # even a direct dict write) can leak past an export.
            "Attributes": redact_attributes(self.attributes),
        }

    # -- context-manager protocol ---------------------------------------

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc is not None and self.status == "ok":
            self.set_error(f"{exc_type.__name__}: {exc}")
        self.tracer.end_span(self)
        return False


class Tracer:
    """Creates spans, tracks the active one, stores finished ones."""

    def __init__(self, clock=None, *, max_spans: int = 100_000, enabled: bool = True):
        self.clock = clock
        self.enabled = enabled
        self.max_spans = max_spans
        self.dropped_spans = 0
        self.finished: list[Span] = []
        self._by_trace: dict[str, list[Span]] = {}
        self._stack: list[Span] = []
        self._next_trace = 0
        self._next_span = 0

    # -- span lifecycle -------------------------------------------------

    def start_span(
        self,
        name: str,
        *,
        remote_parent: Optional[tuple] = None,
        **attrs,
    ) -> Span:
        """Open a span as child of the active one (or of ``remote_parent``).

        ``remote_parent`` is a ``(trace_id, span_id)`` pair extracted from
        request headers; it wins over the local stack, which is how the
        server side of a request joins the client's trace.
        """
        if not self.enabled:
            return _NOOP_SPAN
        # Inlined id/clock helpers: this runs for every request, WAL
        # append, ship, and rule evaluation in the deployment.
        stack = self._stack
        if remote_parent is not None:
            trace_id, parent_id = remote_parent
        elif stack:
            top = stack[-1]
            trace_id, parent_id = top.trace_id, top.span_id
        else:
            self._next_trace += 1
            trace_id, parent_id = f"trace-{self._next_trace:06d}", None
        self._next_span += 1
        span = Span(
            self, trace_id, f"span-{self._next_span:06d}", parent_id, name,
            self.clock.now_ms() if self.clock is not None else 0,
        )
        if attrs:
            span.attributes.update(attrs)
        stack.append(span)
        return span

    def end_span(self, span: Span) -> None:
        if span is _NOOP_SPAN or span._finished:
            return
        span._finished = True
        span.duration_us = (time.perf_counter() - span._start_pc) * 1e6
        now_ms = self.clock.now_ms() if self.clock is not None else 0
        span.duration_sim_ms = now_ms - span.start_sim_ms
        # Pop the span; well-nested exits hit the O(1) fast path, error
        # paths that unwind out of order pay the scan.
        stack = self._stack
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            while stack[-1] is not span:
                stack.pop()
            stack.pop()
        if len(self.finished) < self.max_spans:
            self.finished.append(span)
            self._by_trace.setdefault(span.trace_id, []).append(span)
        else:
            self.dropped_spans += 1

    # -- context --------------------------------------------------------

    def current_span(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def current_trace_id(self) -> str:
        """The active trace id, or "" outside any span."""
        return self._stack[-1].trace_id if self._stack else ""

    # -- propagation ----------------------------------------------------

    def inject(self, headers: dict) -> dict:
        """Write the active context into request headers (no-op if idle)."""
        span = self.current_span()
        if span is not None:
            headers[TRACEPARENT] = f"{span.trace_id}/{span.span_id}"
        return headers

    @staticmethod
    def extract(headers: Optional[dict]) -> Optional[tuple]:
        """Read a ``(trace_id, span_id)`` context out of request headers."""
        if not headers:
            return None
        value = headers.get(TRACEPARENT)
        if not value:
            return None
        trace_id, sep, span_id = str(value).partition("/")
        if not sep or not trace_id or not span_id:
            return None
        return (trace_id, span_id)

    # -- export ---------------------------------------------------------

    def traces(self) -> dict:
        """Finished spans grouped by trace id, in finish order.

        The grouping is maintained incrementally as spans finish, so
        per-trace lookups (the slow-query log renders one exemplar tree
        per record) do not rescan the whole finished list.  Callers must
        treat the mapping as read-only.
        """
        return self._by_trace

    def trace_tree(self, trace_id: str) -> list:
        """Depth-first rendering of one trace: [(depth, span), ...]."""
        spans = self.traces().get(trace_id, [])
        children: dict[Optional[str], list] = {}
        for span in spans:
            children.setdefault(span.parent_id, []).append(span)
        known = {span.span_id for span in spans}
        out: list = []

        def walk(parent_key: Optional[str], depth: int) -> None:
            for span in sorted(children.get(parent_key, []), key=lambda s: s.span_id):
                out.append((depth, span))
                walk(span.span_id, depth + 1)

        walk(None, 0)
        # Spans whose parent never finished (remote parent, drops) are roots.
        for span in spans:
            if span.parent_id is not None and span.parent_id not in known:
                out.append((0, span))
                walk(span.span_id, 1)
        return out

    def export_json(self) -> dict:
        return {
            "DroppedSpans": self.dropped_spans,
            "Traces": {
                trace_id: [span.to_json() for span in spans]
                for trace_id, spans in sorted(self.traces().items())
            },
        }

    def reset(self) -> None:
        self.finished = []
        self._by_trace = {}
        self.dropped_spans = 0


class _NoopSpan(Span):
    """Shared do-nothing span handed out by disabled tracers."""

    def __init__(self):  # noqa: D401 - deliberately skips Span.__init__
        super().__init__(tracer=None, trace_id="", span_id="", parent_id=None,
                         name="noop", start_sim_ms=0)
        self._finished = True

    # Shared by every disabled tracer (and their threads): nothing writes.
    def set_attribute(self, key: str, value: object) -> None:
        pass

    def set_attributes(self, **attrs) -> None:
        pass

    def set_error(self, message: str) -> None:
        pass

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()
