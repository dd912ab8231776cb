"""Server-side overload control: admission by queue budget, brownout.

PR 1's resilience layer protects *clients* (retries, breakers); this
module protects *servers* from the load those very retries generate — the
classic metastable retry-storm setup.  Overload here is a privacy
property, not just an availability one: a loaded store must degrade
**fail-closed**, shedding work with an explicit typed 503
(:class:`~repro.exceptions.OverloadedError`) before any rule evaluation
runs — never a hurried or partial release.

Admission depends only on the backlog at arrival, the request's class,
whether it would hit the release cache, and its deadline.  Two
cooperating pieces, wired into a service's
:class:`~repro.net.http.Router` via :meth:`AdmissionController.attach`:

* **Brownout by queue budget** — every route declares one of six
  priority classes (its ``@route`` declaration,
  :mod:`repro.server.routes`), shed in reverse priority order:
  control-plane rule mutations > replication frames > uploads > queries
  > aggregates > metrics scrapes.  Each class has a *queue budget* (how
  much backlog it tolerates at arrival before shedding), and the budget
  table is the brownout order: as backlog grows, scrapes go dark first,
  then aggregates, then cold (cache-miss) queries — while cached
  releases keep serving and uploads and rule mutations are protected
  longest.  The backlog is virtual: the simulated network dispatches
  synchronously, so server work is modeled as a serial queue where each
  admitted request extends ``busy_until_ms`` by its class's service cost
  (simulated ms), and the queue wait seen at arrival is
  ``busy_until - now``.  The controller never advances the shared
  :class:`~repro.net.faults.SimClock` — offered load is whatever the
  workload drives between clock ticks, which is exactly what lets a
  benchmark offer 10× capacity.  Shedding is cheap by construction: a
  rejected request adds no work.

* **LIFO-with-deadline rejection** — clients stamp their remaining
  budget into the ``X-Deadline-Ms`` header; a request whose budget is
  smaller than the current queue wait is rejected with a typed 504
  (:class:`~repro.exceptions.DeadlineExpiredError`) *before* touching
  the rule engine.  In a synchronous simulation this arrival-time check
  is equivalent to LIFO service discarding expired work at dequeue: work
  whose caller already gave up is never performed.

Modes: ``"observe"`` (the default everywhere) accounts and reports
would-shed decisions but admits everything — existing workloads see zero
behavior change; ``"enforce"`` sheds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.exceptions import DeadlineExpiredError, OverloadedError
from repro.net.http import Request, Response, Router

MODE_OBSERVE = "observe"
MODE_ENFORCE = "enforce"
MODES = (MODE_OBSERVE, MODE_ENFORCE)

#: Priority classes, highest priority (shed last) first.
CLASS_CONTROL = "control"
CLASS_REPLICATION = "replication"
CLASS_UPLOAD = "upload"
CLASS_QUERY = "query"
CLASS_AGGREGATE = "aggregate"
CLASS_SCRAPE = "scrape"

#: Shed-order reference (documentation + brownout level computation):
#: index 0 sheds first under pressure, the last entry is protected longest.
BROWNOUT_ORDER = (
    CLASS_SCRAPE,
    CLASS_AGGREGATE,
    CLASS_QUERY,
    CLASS_UPLOAD,
    CLASS_REPLICATION,
    CLASS_CONTROL,
)

#: Data-plane classes counted by the goodput SLO.  Scrapes are excluded:
#: shedding telemetry reads under pressure is the design, not lost goodput.
GOODPUT_CLASSES = (CLASS_UPLOAD, CLASS_QUERY, CLASS_AGGREGATE, CLASS_REPLICATION)

@dataclass(frozen=True)
class OverloadConfig:
    """Knobs of one host's admission controller.

    ``service_ms`` is the virtual serial-work cost one admitted request of
    each class adds to the backlog; ``queue_budget_ms`` is how much
    backlog a class tolerates at arrival before it sheds — the brownout
    ladder *is* this table (scrape's budget < aggregate's < cold query's
    < …).
    """

    service_ms: dict = field(default_factory=lambda: {
        CLASS_CONTROL: 2.0,
        CLASS_REPLICATION: 2.0,
        CLASS_UPLOAD: 4.0,
        CLASS_QUERY: 5.0,
        CLASS_AGGREGATE: 8.0,
        CLASS_SCRAPE: 1.0,
    })
    #: Virtual cost of a query that will be served from the release cache
    #: (brownout keeps serving these after cold queries shed).
    cached_query_ms: float = 1.0
    queue_budget_ms: dict = field(default_factory=lambda: {
        CLASS_CONTROL: 2_000.0,
        CLASS_REPLICATION: 1_500.0,
        CLASS_UPLOAD: 1_000.0,
        CLASS_QUERY: 400.0,
        CLASS_AGGREGATE: 200.0,
        CLASS_SCRAPE: 100.0,
    })
    #: Backlog a *cached* query tolerates (between cold queries and uploads).
    cached_query_budget_ms: float = 750.0
    #: Floor on the Retry-After hint attached to sheds.
    min_retry_after_ms: int = 250

    def service_cost(self, cls: str, cached: bool) -> float:
        """Modelled service time (ms) of one request of this class."""
        if cached and cls == CLASS_QUERY:
            return self.cached_query_ms
        return self.service_ms[cls]

    def queue_budget(self, cls: str, cached: bool) -> float:
        """Queueing delay (ms) a request of this class may absorb before shedding."""
        if cached and cls == CLASS_QUERY:
            return self.cached_query_budget_ms
        return self.queue_budget_ms[cls]


class AdmissionController:
    """Admission control + brownout for one host's router.

    Construct with the host's ``"METHOD path"`` -> class map — what its
    route declarations imply (:func:`repro.server.routes.mount`) — and,
    for stores, a ``cache_probe`` that predicts whether a query would be
    served from the release cache, and :meth:`attach` it to the service's
    router: the gate then runs before every handler and the completion
    hook after.
    """

    def __init__(
        self,
        host: str,
        network,
        *,
        classes: dict,
        mode: str = MODE_OBSERVE,
        config: Optional[OverloadConfig] = None,
        cache_probe: Optional[Callable[[Request], bool]] = None,
    ):
        if mode not in MODES:
            raise ValueError(f"unknown overload mode {mode!r}")
        self.host = host
        self.network = network
        self.mode = mode
        self.config = config or OverloadConfig()
        #: ``"METHOD path"`` -> class; a web UI mounted later adds its pages.
        self.classes = classes
        self.cache_probe = cache_probe
        self._clock = network.clock
        #: end of the virtual serial work queue, in simulated ms.
        self.busy_until_ms = 0.0
        #: benchmark probe: the last admitted request's virtual queue wait
        #: plus service cost (safe: dispatch is synchronous).
        self.last_rtt_ms = 0.0
        self.obs = network.obs
        self._c_requests: dict = {}
        self._c_served: dict = {}
        self._c_shed: dict = {}
        self._c_would_shed: dict = {}
        self._h_queue: dict = {}
        m = self.obs.metrics
        m.gauge("admission_queue_wait_ms", callback=lambda: self.queue_ms(), host=host)
        m.gauge(
            "admission_brownout_level", callback=lambda: self.brownout_level(), host=host
        )

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach(self, router: Router) -> None:
        """Install this controller as the router's admission gate."""
        router.gate = self.gate
        router.gate_done = self.gate_done

    def classify(self, method: str, path: str) -> str:
        """The priority class of one request: its route's declared class."""
        return self.classes[f"{method} {path}"]

    # ------------------------------------------------------------------
    # State probes
    # ------------------------------------------------------------------

    def queue_ms(self, now_ms: Optional[float] = None) -> float:
        """Current virtual backlog: the wait an arriving request sees."""
        now = self._clock.now_ms() if now_ms is None else now_ms
        return max(0.0, self.busy_until_ms - now)

    def brownout_level(self) -> int:
        """How deep the brownout is: the count of classes currently shedding.

        0 means everything is admitted; 1 means scrapes shed; 2 adds
        aggregates; 3 adds cold queries; and so on up the priority ladder.
        Derived purely from the current backlog vs the queue budgets, so
        the gauge is meaningful in observe mode too.
        """
        backlog = self.queue_ms()
        level = 0
        for cls in BROWNOUT_ORDER:
            if backlog > self.config.queue_budget(cls, cached=False):
                level += 1
            else:
                break
        return level

    # ------------------------------------------------------------------
    # Metric binding (lazy per class; labels via **kwargs because
    # ``class`` is a Python keyword)
    # ------------------------------------------------------------------

    def _requests_ctr(self, cls: str):
        ctr = self._c_requests.get(cls)
        if ctr is None:
            ctr = self._c_requests[cls] = self.obs.metrics.counter(
                "admission_requests_total", **{"host": self.host, "class": cls}
            )
        return ctr

    def _served_ctr(self, cls: str):
        ctr = self._c_served.get(cls)
        if ctr is None:
            ctr = self._c_served[cls] = self.obs.metrics.counter(
                "admission_served_total", **{"host": self.host, "class": cls}
            )
        return ctr

    def _shed_ctr(self, cls: str, reason: str):
        ctr = self._c_shed.get((cls, reason))
        if ctr is None:
            ctr = self._c_shed[(cls, reason)] = self.obs.metrics.counter(
                "admission_shed_total",
                **{"host": self.host, "class": cls, "reason": reason},
            )
        return ctr

    def _would_shed_ctr(self, cls: str, reason: str):
        ctr = self._c_would_shed.get((cls, reason))
        if ctr is None:
            ctr = self._c_would_shed[(cls, reason)] = self.obs.metrics.counter(
                "admission_would_shed_total",
                **{"host": self.host, "class": cls, "reason": reason},
            )
        return ctr

    def _queue_hist(self, cls: str):
        hist = self._h_queue.get(cls)
        if hist is None:
            hist = self._h_queue[cls] = self.obs.metrics.histogram(
                "admission_queue_ms", **{"host": self.host, "class": cls}
            )
        return hist

    # ------------------------------------------------------------------
    # The gate
    # ------------------------------------------------------------------

    @staticmethod
    def _deadline_remaining(request: Request) -> Optional[float]:
        raw = request.headers.get("X-Deadline-Ms")
        if raw is None:
            return None
        try:
            return float(raw)
        except (TypeError, ValueError):
            return None

    def _retry_after(self, queue_ms: float, budget: float) -> int:
        """How long until the backlog could drain under this class's budget."""
        return int(max(self.config.min_retry_after_ms, queue_ms - budget))

    def gate(self, request: Request):
        """Admission decision for one request; raises on shed (enforce).

        Returns an opaque ticket (the class) handed back to :meth:`gate_done`.
        """
        cfg = self.config
        now = self._clock.now_ms()
        cls = self.classify(request.method, request.path)
        cached = bool(
            cls == CLASS_QUERY
            and self.cache_probe is not None
            and self.cache_probe(request)
        )
        queue_ms = self.queue_ms(now)
        self._requests_ctr(cls).inc()

        shed: Optional[tuple] = None  # (reason, exception)
        remaining = self._deadline_remaining(request)
        budget = cfg.queue_budget(cls, cached)
        if remaining is not None and remaining <= queue_ms:
            # The caller's budget dies in our queue: reject before the
            # rule engine sees it (LIFO-with-deadline equivalent).
            shed = (
                "deadline",
                DeadlineExpiredError(
                    f"{self.host!r} queue wait {queue_ms:.0f}ms exceeds the "
                    f"caller's remaining deadline of {remaining:.0f}ms"
                ),
            )
        elif queue_ms > budget:
            shed = (
                "queue",
                OverloadedError(
                    f"{self.host!r} is overloaded: {queue_ms:.0f}ms of backlog "
                    f"exceeds the {budget:.0f}ms budget of class {cls!r}",
                    retry_after_ms=self._retry_after(queue_ms, budget),
                ),
            )

        if shed is not None:
            reason, exc = shed
            if self.mode == MODE_ENFORCE:
                self._shed_ctr(cls, reason).inc()
                raise exc
            # Observe mode: record what enforcement *would* have shed —
            # the runbook's dry-run signal — then admit anyway.
            self._would_shed_ctr(cls, reason).inc()

        # Admitted: extend the virtual backlog by this request's cost.
        service = cfg.service_cost(cls, cached)
        start = max(now, self.busy_until_ms)
        self.busy_until_ms = start + service
        self.last_rtt_ms = queue_ms + service
        self._queue_hist(cls).observe(queue_ms)
        return cls

    def gate_done(self, ticket, response: Response) -> None:
        """Completion hook: count served (2xx) responses per class."""
        if response.ok:
            self._served_ctr(ticket).inc()
