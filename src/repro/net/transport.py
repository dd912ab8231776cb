"""The simulated network: named hosts, metrics, tracing, and TLS invariant.

Hosts mount a :class:`~repro.net.http.Router` under a name ("broker",
"alice-store").  :meth:`Network.request` parses a URL, measures the body's
wire form (:mod:`repro.net.wire`), enforces that API keys only travel
over HTTPS POST bodies, dispatches to the target router, and records
per-host traffic metrics.

The byte accounting is the instrument for benchmark C2: the paper claims
"the broker is not a performance bottleneck because sensor data are
directly transferred from each remote data store to data consumers" — with
these counters we can show broker traffic stays flat while store traffic
scales with data volume.  A response's bytes are ``wire.size`` of its
body: measured here, unless the handler declares
``Response.wire_bytes`` (a cached release knows its size from the miss
that built it), in which case the declared size must equal the measured
one — the conformance runner holds every end-to-end trial to that.

Observability: the network owns the deployment's
:class:`~repro.obs.Observability` hub.  Every delivered request increments
per-host, per-route, and per-status-class counters in the shared metrics
registry (:class:`HostMetrics` is now a back-compat view over those
counters) and runs inside a ``net.request`` server span that joins the
caller's trace via the ``Traceparent`` request header.
"""

from __future__ import annotations

import re
from typing import Optional

from repro.exceptions import InsecureTransportError, TransportError
from repro.net import wire
from repro.net.faults import FaultPlan, SimClock
from repro.net.http import Request, Response, Router
from repro.obs import Observability

_URL_RE = re.compile(r"^(https?)://([A-Za-z0-9._-]+)(/.*)?$")

_STATUS_CLASSES = ("1xx", "2xx", "3xx", "4xx", "5xx")


class HostMetrics:
    """Traffic counters for one host — a view over the metrics registry.

    Keeps the original attribute surface (``requests_in``, ``bytes_in``,
    ``bytes_out``, ``total_bytes()``) that benchmarks C1/C2/C5 and the
    examples read, while the actual counts live in the shared
    :class:`~repro.obs.metrics.MetricsRegistry` where ``/api/metrics``
    and ``python -m repro obs report`` can see them.
    """

    def __init__(self, registry, host: str):
        self._registry = registry
        self.host = host
        self._requests = registry.counter("net_requests_total", host=host)
        self._bytes_in = registry.counter("net_bytes_in_total", host=host)
        self._bytes_out = registry.counter("net_bytes_out_total", host=host)
        self._dropped = registry.counter("net_requests_dropped_total", host=host)
        self._status = {
            cls: registry.counter("net_responses_total", host=host, status_class=cls)
            for cls in _STATUS_CLASSES
        }

    @property
    def requests_in(self) -> int:
        return self._requests.value

    @property
    def bytes_in(self) -> int:
        return self._bytes_in.value

    @property
    def bytes_out(self) -> int:
        return self._bytes_out.value

    def total_bytes(self) -> int:
        return self.bytes_in + self.bytes_out

    def status_class(self, cls: str) -> int:
        """Responses in one status class ("2xx", "4xx", "5xx", ...)."""
        counter = self._status.get(cls)
        return counter.value if counter is not None else 0

    def reset(self) -> None:
        for counter in (self._requests, self._bytes_in, self._bytes_out, self._dropped):
            counter.reset()
        for counter in self._status.values():
            counter.reset()


class Network:
    """An in-process network of named hosts."""

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        fault_plan: Optional[FaultPlan] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self._hosts: dict[str, Router] = {}
        #: names taken off the network: they neither answer nor send.
        self._down: set = set()
        self.clock = clock or SimClock()
        self.faults = fault_plan
        self.obs = obs if obs is not None else Observability(clock=self.clock)
        self.metrics: dict[str, HostMetrics] = {}

    def install_faults(self, plan: Optional[FaultPlan]) -> None:
        """Install (or with ``None`` remove) a fault-injection plan."""
        self.faults = plan

    def register_host(self, name: str, router: Router) -> None:
        if name in self._hosts:
            raise TransportError(f"host name already registered: {name!r}")
        self._hosts[name] = router
        self._down.discard(name)
        if name not in self.metrics:  # a restarted host keeps its counters
            self.metrics[name] = HostMetrics(self.obs.metrics, name)

    def unregister_host(self, name: str) -> None:
        """Take a host off the network — a process crash or shutdown.

        Requests to it fail like any unknown host, and requests sent by it
        fail too (a dead process acts on nothing), until a restarted
        service re-registers under the same name (crash-recovery tests do
        exactly this); traffic accounting is preserved across the restart.
        """
        self._hosts.pop(name, None)
        self._down.add(name)

    def hosts(self) -> list[str]:
        return sorted(self._hosts)

    def metrics_of(self, name: str) -> HostMetrics:
        try:
            return self.metrics[name]
        except KeyError:
            raise TransportError(f"unknown host: {name!r}") from None

    def reset_metrics(self) -> None:
        """Zero the traffic counters (other instrument families survive)."""
        self.obs.metrics.reset("net_")

    @staticmethod
    def parse_url(url: str) -> tuple:
        """Split a URL into (secure, host, path)."""
        match = _URL_RE.match(url)
        if not match:
            raise TransportError(f"malformed URL: {url!r}")
        scheme, host, path = match.groups()
        return scheme == "https", host, path or "/"

    def request(
        self,
        method: str,
        url: str,
        body: Optional[dict] = None,
        *,
        client: str = "anonymous",
        headers: Optional[dict] = None,
    ) -> Response:
        """Deliver one request and return the response.

        Raises :class:`InsecureTransportError` when an ``ApiKey`` field — or
        a web page's ``Token``, which is an API key too — would travel over
        plain http or outside a request body that HTTPS protects (the
        paper's Section 5.4 invariant).
        """
        secure, host, path = self.parse_url(url)
        if client in self._down:
            raise TransportError(f"{client!r} is down: it sends nothing until it registers again")
        body = dict(body or {})
        if _carries_api_key(body):
            if not secure:
                raise InsecureTransportError(
                    f"refusing to send an API key over insecure http to {host!r}"
                )
            if method != "POST":
                raise InsecureTransportError(
                    "API keys must be carried in HTTPS POST bodies, "
                    f"not {method} requests"
                )
        router = self._hosts.get(host)
        if router is None:
            raise TransportError(f"no such host: {host!r}")
        headers = dict(headers or {})
        metrics = self.metrics[host]
        tracer = self.obs.tracer
        with tracer.start_span(
            "net.request",
            remote_parent=tracer.extract(headers),
            method=method,
            host=host,
            route=path,
            peer=client,
        ) as span:
            injected: Optional[Response] = None
            if self.faults is not None:
                # May raise NetworkUnavailableError (drop/partition/outage) —
                # the request never reaches the host, so nothing is counted
                # against its traffic (only the drop counter moves).
                try:
                    injected = self.faults.apply(method, host, path, client, self.clock)
                except Exception:
                    metrics._dropped.inc()
                    raise
            payload_bytes, part_bytes = wire.sizes(body)
            if part_bytes:
                span.set_attribute("part_bytes", part_bytes)
            # The request has arrived: count it (and its payload) before
            # dispatch so traffic accounting stays honest when a handler — or
            # an injected fault — errors out.
            metrics._requests.inc()
            metrics._bytes_in.inc(payload_bytes)
            if injected is not None:
                response = injected
                span.set_attribute("fault_injected", True)
            else:
                request = Request(
                    method=method,
                    host=host,
                    path=path,
                    body=body,
                    secure=secure,
                    client=client,
                    headers=headers,
                )
                response = router.dispatch(request)
                if self.faults is not None:
                    # Post-dispatch faults: the handler committed, but the
                    # ack can still be lost on the way back to the caller.
                    lost = self.faults.apply_response(
                        method, host, path, client, self.clock
                    )
                    if lost is not None:
                        response = lost
                        span.set_attribute("fault_injected", True)
            # Only a consumer release declares its size (docs/ARCHITECTURE.md,
            # "Wire accounting"); injected faults, errors and every other
            # route leave it unset and are measured here.
            metrics._bytes_out.inc(
                response.wire_bytes
                if response.wire_bytes is not None
                else wire.size(response.body)
            )
            status_class = f"{response.status // 100}xx"
            counter = metrics._status.get(status_class)
            if counter is not None:
                counter.inc()
            self.obs.metrics.counter(
                "net_route_requests_total",
                host=host,
                route=path,
                status_class=status_class,
            ).inc()
            span.set_attribute("status", response.status)
            if response.status >= 500:
                span.set_error(f"status {response.status}")
        return response


def _has_key(obj: dict) -> bool:
    return "ApiKey" in obj or "Token" in obj


def _carries_api_key(body: dict) -> bool:
    """Does the body carry an ``ApiKey`` or a page ``Token`` (an owner's or
    a consumer's API key) at the top level or one level deep?

    Section 5.4's invariant must also catch keys smuggled inside a nested
    object (e.g. ``{"Profile": {"ApiKey": ...}}``) — one level is as deep
    as any legitimate request schema nests.
    """
    if _has_key(body):
        return True
    for value in body.values():
        if isinstance(value, dict) and _has_key(value):
            return True
        if isinstance(value, list) and any(
            isinstance(item, dict) and _has_key(item) for item in value
        ):
            return True
    return False
