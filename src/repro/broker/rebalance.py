"""Online shard split/migration: the broker-driven rebalance coordinator.

A migration moves a contributor range from one shard to another while
both keep serving.  The phase machine (documented with a diagram in
``docs/ARCHITECTURE.md``):

1. **accept** — ``/api/migrate/accept`` has the destination issue a key
   for this move alone: it installs only the moving contributors' records,
   sent only by the source, and a restart ends it.
2. **send** — ``/api/migrate/send`` hands the source that key; the source
   posts the range's durable state to the destination itself, which
   re-journals it through its one installer.  The broker hears back only
   digests and a count: it never holds a record of the range.
3. **fence** — ``/api/migrate/fence`` recomputes the range's digest and,
   only if it is still the send's, makes the range's role rows on the
   source ``moved`` (records: they survive its restart, ship to its
   replicas, and a move back replaces them): every request naming a
   moved contributor bounces with :class:`~repro.exceptions.NotPrimaryError`.
   A write that raced the copy changed the digest: the fence is a 409
   :class:`~repro.exceptions.ConflictError`, the source keeps serving the
   range, nothing is repointed, and the destination's unrouted copy is
   fenced with the ``DestDigest`` the send answered, so that a retry
   replaces it: a retry's install lands over that fence, and a contributor
   row over a fence drops the segments left behind, so a segment deleted at
   the source in between does not come back.  A fence that lands proves the
   destination holds the range's exact pre-fence state: zero
   committed-write loss across the cutover.
4. **verify (fail-closed)** — ``/api/migrate/complete`` checks the
   destination's installed rule versions against the broker mirror;
   any contributor whose rule state isn't verifiably current is denied
   by default until their owner re-publishes (the promotion fence from
   :mod:`repro.broker.failover`).  A migration may deny; it must never
   widen access.
5. **cutover** — :meth:`~repro.broker.directory.ShardDirectory.move`
   repoints the moved range in ONE routing-epoch bump, the mirror
   force-pulls from the destination, and escrowed consumers are
   enrolled there.  Contributor phones re-key lazily via the
   existing :meth:`~repro.core.system.SensorSafeSystem
   .repoint_contributor` runbook step.

Order matters: the fence precedes the cutover, so there is no instant
at which both shards would accept writes for the same contributor — the
window shows up as one fenced retry on the client, not as divergence.
"""

from __future__ import annotations

from repro.exceptions import BadRequestError, ConflictError, ServiceError


class ShardRebalancer:
    """Drives contributor-range migrations between the broker's shards."""

    def __init__(self, broker):
        self.broker = broker
        #: Trace-stamped migration audit records, newest last (same shape
        #: as failover events; surfaced in the fleet snapshot).
        self.events: list = []
        self.active = 0
        self.obs = broker.network.obs
        m = self.obs.metrics
        self._c_migrations = m.counter("migrations_total")
        self._c_shipped = m.counter("migration_records_shipped_total")
        self._c_failclosed = m.counter("migration_failclosed_total")
        self._h_duration = m.histogram("migration_ms")
        m.gauge("migration_active", callback=lambda: self.active)

    # ------------------------------------------------------------------
    # Store RPC plumbing
    # ------------------------------------------------------------------

    def _store_call(self, host: str, path: str, body: dict) -> dict:
        key = self.broker.store_keys.get(host)
        if key is None:
            raise ServiceError(f"no broker key for store host {host!r}", status=404)
        return self.broker.client.with_key(key).post(f"https://{host}{path}", body)

    def _fence(self, host: str, names: list, digest: str) -> None:
        self._store_call(
            host, "/api/migrate/fence", {"Contributors": names, "Digest": digest}
        )

    # ------------------------------------------------------------------
    # Migration
    # ------------------------------------------------------------------

    def migrate(self, contributors, dest_host: str) -> dict:
        """Move a contributor range to ``dest_host`` (phases 1–5 above)."""
        tracer = self.broker.network.obs.tracer
        with tracer.start_span("shard.migrate", dest=dest_host) as span:
            return self._migrate(contributors, dest_host, span)

    def _migrate(self, contributors, dest_host: str, span) -> dict:
        names = sorted(set(str(c) for c in contributors))
        sources = {self.broker.registry.get(name).host for name in names}
        if len(sources) > 1:
            raise BadRequestError(
                f"one source shard per migration, got {sorted(sources)}"
            )
        source = sources.pop() if sources else None
        if source in (None, dest_host):
            return {"Moved": 0, "Source": source, "Dest": dest_host,
                    "FailClosed": [], "RecordsShipped": 0}
        clock = self.broker.network.clock
        started_ms = clock.now_ms()
        self.active += 1
        try:
            # Phases 1-2: the source copies the range to the destination.
            accept = {"Contributors": names, "Source": source}
            key = self._store_call(dest_host, "/api/migrate/accept", accept)["ApiKey"]
            sent = self._store_call(source, "/api/migrate/send", {
                "Contributors": names, "Dest": {"Host": dest_host, "ApiKey": key}})
            shipped = sent["Installed"]
            self._c_shipped.inc(shipped)
            # Phase 3: fence the source — the moved range now answers 409 —
            # unless the range changed since the copy (a 409 here, which
            # fences the destination's unrouted copy instead).
            try:
                self._fence(source, names, sent["Digest"])
            except ConflictError:
                self._fence(dest_host, names, sent["DestDigest"])
                raise
            # Phase 4: fail-closed verification against the broker mirror.
            versions = {
                name: self.broker.registry.get(name).rules_version
                for name in names
            }
            complete = self._store_call(
                dest_host, "/api/migrate/complete", {"RuleVersions": versions}
            )
            fail_closed = sorted(complete.get("FailClosed", []))
            # Phase 5: cutover — one routing-epoch bump repoints the range.
            moved = self.broker.directory.move(names, dest_host)
            epoch = self.broker.directory.routing_epoch
            # The destination is the authority for the range it took:
            # fail-closed denies carry bumped versions and must win.
            self.broker.sync.reconcile_host(
                self.broker.client, dest_host, self.broker.store_keys, names
            )
            reregistered = self.broker.enroll_escrowed(source, dest_host)[0]
        finally:
            self.active -= 1
        duration_ms = clock.now_ms() - started_ms
        self._c_migrations.inc()
        self._c_failclosed.inc(len(fail_closed))
        self._h_duration.observe(duration_ms)
        span.set_attributes(source=source, moved=moved, epoch=epoch)
        report = {
            "Moved": moved,
            "Source": source,
            "Dest": dest_host,
            "RoutingEpoch": epoch,
            "RecordsShipped": shipped,
            "FailClosed": fail_closed,
            "ConsumersReRegistered": reregistered,
            "DurationMs": duration_ms,
            "TraceId": span.trace_id,
        }
        self.events.append({
            "Event": "migrate",
            "Source": source,
            "Dest": dest_host,
            "Contributors": len(names),
            "Moved": moved,
            "RecordsShipped": shipped,
            "FailClosed": fail_closed,
            "RoutingEpoch": epoch,
            "AtMs": int(clock.now_ms()),
            "DurationMs": duration_ms,
            "TraceId": span.trace_id,
        })
        return report

    # ------------------------------------------------------------------
    # Split
    # ------------------------------------------------------------------

    def split_shard(self, source_host: str, dest_host: str) -> dict:
        """Split one shard: ring-add the destination, move its range.

        The destination joins the ring *first*, so contributors who
        register mid-split already land there; the migration then moves
        exactly the existing contributors whose ring placement is the new
        shard.  Requires the destination store to be broker-attached.
        """
        if dest_host not in self.broker.store_keys:
            raise ServiceError(
                f"destination {dest_host!r} is not broker-attached", status=404
            )
        directory = self.broker.directory
        if dest_host not in directory.ring:
            directory.add_shard(dest_host)
        plan = directory.plan_split(source_host, dest_host)
        report = self.migrate(plan, dest_host)
        report["Planned"] = len(plan)
        return report

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def status(self) -> dict:
        """Whether a rebalance is running, plus the recent event tail."""
        return {
            "Active": self.active,
            "Migrations": sum(1 for e in self.events if e["Event"] == "migrate"),
            "Events": list(self.events[-20:]),
        }
