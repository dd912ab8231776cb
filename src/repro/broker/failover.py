"""Broker-driven failure detection, promotion, and epoch fencing.

The broker is the natural failure detector and directory for replicated
stores: it already holds a key at every store, mirrors every
contributor's rule version, and answers "which host serves contributor
X" for consumers.  This module adds the missing control loop:

* :meth:`FailoverManager.register_set` pairs a primary with its replicas
  and wires WAL shipping (:mod:`repro.storage.replication`);
* :meth:`FailoverManager.heartbeat` probes every member's ``/api/health``
  over the real (simulated, faultable) network and pumps the primary's
  shipper — the broker tick is the replication tick;
* after ``miss_threshold`` consecutive failed probes of a primary,
  :meth:`FailoverManager.failover` promotes the most-caught-up replica,
  once every replica answers, at a **bumped store epoch**, best-effort
  demotes the old primary, re-homes the contributor directory,
  force-pulls the promoted store's profiles, and enrolls escrowed
  consumers there.

Safety properties, in order of precedence:

1. **Fencing** — the epoch only moves forward.  A demoted primary that
   missed the news has its WAL ships answered with 409 and demotes
   itself; its clients' writes bounce with
   :class:`~repro.exceptions.NotPrimaryError` and re-resolve here.
2. **Fail closed** — promotion passes the broker's mirrored rule
   versions to the new primary; any contributor whose replicated rules
   lag that mirror is denied by default until their owner re-publishes
   (same contract as crash recovery).  If any replica does not answer,
   or the one elected does not confirm its promotion, there is *no*
   promotion: the set stays down rather than serving stale, and the next
   heartbeat elects again.
3. **Progress** — a write is acknowledged once one replica holds it
   (:mod:`repro.storage.replication`), and that replica is among every
   replica the election sees; the one with the highest position wins
   (:func:`elect`), so committed-write loss is zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.exceptions import OverloadedError, SensorSafeError, TransportError
from repro.net.client import HttpClient

#: Consecutive missed health probes before a primary is declared dead.
DEFAULT_MISS_THRESHOLD = 2


def elect(statuses: dict) -> tuple:
    """``(host, "")`` to promote given each replica's status answer (None:
    silent), or ``(None, why not)``.  One replica acks a write, so all must
    answer with a known position.  The highest ``(Epoch, Lsn)`` wins, so an
    ex-primary's tail at an older epoch ranks below; ties break on host."""
    if not statuses:
        return None, "no replica"
    silent = sorted(host for host, status in statuses.items() if status is None)
    if silent:
        return None, f"replicas not answering: {silent}"
    unknown = sorted(host for host, status in statuses.items() if status.get("Position") is None)
    if unknown:
        return None, f"replica position unknown: {unknown}"
    rank = {host: status["Position"] for host, status in statuses.items()}
    return min(rank, key=lambda host: (-rank[host]["Epoch"], -rank[host]["Lsn"], host)), ""


@dataclass
class ReplicaSet:
    """One replicated store group, from the broker's point of view."""

    name: str
    primary: str
    replicas: list = field(default_factory=list)
    #: host -> in-process DataStoreService handle.  The broker is the
    #: deployment's directory; in the simulation it also holds the
    #: service handles it uses to wire shipping links at setup time.
    services: dict = field(default_factory=dict)
    epoch: int = 1
    missed: dict = field(default_factory=dict)  # host -> consecutive misses
    demoted: list = field(default_factory=list)  # fenced ex-primaries
    failovers: int = 0

    def members(self) -> list:
        """Every live member of the set, primary first."""
        return [self.primary] + list(self.replicas)


class FailoverManager:
    """Health checking and primary election for the broker's replica sets."""

    def __init__(self, broker, *, miss_threshold: int = DEFAULT_MISS_THRESHOLD):
        self.broker = broker
        self.miss_threshold = max(1, int(miss_threshold))
        self.sets: dict[str, ReplicaSet] = {}
        #: probe client: no retry policy and no breakers, so detection
        #: latency is one probe and circuit state never masks a probe.
        self._probe = HttpClient(broker.network, name=broker.host)
        #: Trace-stamped promotion/rejoin audit records, newest last.
        #: Surfaced via /api/replicas/status and the fleet snapshot so an
        #: operator can jump from "who promoted when" to the exact trace.
        self.events: list = []
        self.obs = broker.network.obs
        m = self.obs.metrics
        self._c_heartbeats = m.counter("failover_heartbeats_total")
        self._c_failovers = m.counter("failover_promotions_total")
        self._c_noquorum = m.counter("failover_no_candidate_total")

    # ------------------------------------------------------------------
    # Set construction
    # ------------------------------------------------------------------

    def register_set(
        self,
        primary,
        replicas,
        *,
        name: Optional[str] = None,
    ) -> ReplicaSet:
        """Pair a primary with its replicas and start WAL shipping.

        Every member is broker-paired (the broker needs keys everywhere:
        health probes, promotion/demotion authority, post-failover
        profile pulls), replicas are demoted, and the primary's shipper
        gets one authenticated link per replica.  The initial pump ships
        each replica a resync, so replicas converge immediately.
        """
        set_name = name or primary.host
        if set_name in self.sets:
            raise SensorSafeError(f"replica set already registered: {set_name!r}")
        group = ReplicaSet(name=set_name, primary=primary.host, epoch=primary.epoch)
        group.services[primary.host] = primary
        if primary.host not in self.broker.store_keys:
            self.broker.attach_store(primary)
        shipper = primary.enable_replication()
        for replica in replicas:
            group.services[replica.host] = replica
            group.replicas.append(replica.host)
            if replica.host not in self.broker.store_keys:
                self.broker.attach_store(replica)
            replica.demote(group.epoch)
            self._link(shipper, primary.host, replica)
        for host in group.members():
            group.missed[host] = 0
        shipper.pump()
        self.obs.metrics.gauge("replica_set_epoch", callback=lambda: group.epoch, set=set_name)
        self.sets[set_name] = group
        return group

    def _link(self, shipper, primary_host: str, replica) -> None:
        """Wire one authenticated shipping link primary -> replica."""
        client = HttpClient(self.broker.network, name=primary_host, api_key=replica.pair_primary())
        shipper.attach(replica.host, client)

    # ------------------------------------------------------------------
    # Failure detection
    # ------------------------------------------------------------------

    def _probe_host(self, host: str, path: str = "/api/health") -> Optional[dict]:
        """One probe of ``path``; None when the host missed it."""
        key = self.broker.store_keys.get(host)
        try:
            return self._probe.with_key(key).post(f"https://{host}{path}", {})
        except OverloadedError:
            # Explicit backpressure is an *answer*: the host is alive and
            # shedding by design.  Overload must never read as death —
            # promoting away from a busy primary would turn every brownout
            # into a failover storm.  (Health probes are control-class and
            # rarely shed; metrics scrapes are lowest priority and the
            # fleet aggregator tombstones those on its own.)
            return {"Host": host, "Overloaded": True}
        except (TransportError, SensorSafeError):
            # Unreachable, erroring, or re-keyed after a restart: all
            # count as a miss — a primary we cannot authoritatively probe
            # is a primary we cannot vouch for.
            return None

    def heartbeat(self) -> dict:
        """Probe every member of every set; fail over dead primaries.

        Returns a per-set report.  The primary's shipper is pumped only
        when its probe *succeeded*: the broker never drives I/O on behalf
        of a store it just observed to be dead or unreachable.
        """
        self._c_heartbeats.inc()
        slo = self.broker.network.obs.slo
        report = {}
        for name, group in sorted(self.sets.items()):
            health = {}
            for host in group.members():
                probe = self._probe_host(host)
                if probe is None:
                    group.missed[host] = group.missed.get(host, 0) + 1
                    if host == group.primary:
                        # First miss anchors the failover-detection SLO.
                        slo.primary_missed(name)
                else:
                    group.missed[host] = 0
                    if host == group.primary:
                        slo.primary_alive(name)
                health[host] = {"Alive": probe is not None, "Missed": group.missed[host]}
            primary_svc = group.services.get(group.primary)
            failed_over = None
            if group.missed.get(group.primary, 0) >= self.miss_threshold:
                failed_over = self.failover(name)
            elif (
                health[group.primary]["Alive"]
                and primary_svc is not None
                and primary_svc.replication is not None
                and primary_svc.is_primary
            ):
                primary_svc.replication.pump()
            report[name] = {
                "Primary": group.primary,
                "Epoch": group.epoch,
                "Health": health,
                "FailedOver": failed_over,
            }
        # The broker tick is also the fleet-telemetry tick: scrape every
        # fleet.interval_ms of simulated time (no-op between intervals).
        fleet = getattr(self.broker, "fleet", None)
        if fleet is not None:
            fleet.maybe_scrape()
        return report

    # ------------------------------------------------------------------
    # Promotion
    # ------------------------------------------------------------------

    def _record_event(self, event: str, name: str, host, epoch: int,
                      trace_id: str, **extra) -> dict:
        """Append one trace-stamped failover audit record."""
        record = {
            "Event": event,
            "Set": name,
            "Host": host,
            "Epoch": int(epoch),
            "AtMs": int(self.broker.network.clock.now_ms()),
            "TraceId": trace_id,
            **extra,
        }
        self.events.append(record)
        return record

    def failover(self, name: str) -> dict:
        """Promote the most-caught-up replica of one set.

        Returns a report; when a replica does not answer, or the elected
        one does not confirm its promotion, nothing is promoted and the
        directory is left untouched (requests keep failing until the next
        heartbeat's election succeeds — unavailability is the fail-closed
        outcome).
        The whole election runs inside a ``failover.promote`` span, and
        the returned report (and audit record) carries its trace id.
        """
        tracer = self.broker.network.obs.tracer
        with tracer.start_span("failover.promote", set=name) as span:
            report = self._failover(name, span)
        return report

    def _failover(self, name: str, span) -> dict:
        group = self.sets[name]
        old_primary = group.primary
        statuses = {h: self._probe_host(h, "/api/replicate/status") for h in group.replicas}
        promoted, reason = elect(statuses)
        if promoted is None:
            return self._no_candidate(group, span, reason)
        # Above every (fencing) epoch a replica reports, so a promotion
        # whose reply was lost is superseded, not repeated.
        new_epoch = 1 + max(
            [group.epoch] + [int(status.get("Epoch", 0)) for status in statuses.values()]
        )
        versions = {
            record.name: record.rules_version
            for record in self.broker.registry.on_host(old_primary)
        }
        try:
            promotion = self._probe.with_key(self.broker.store_keys.get(promoted)).post(
                f"https://{promoted}/api/promote",
                {"Epoch": new_epoch, "RuleVersions": versions},
            )
        except (TransportError, SensorSafeError):
            return self._no_candidate(group, span, f"{promoted} did not confirm promotion")
        # Fence the old primary if it still answers; if not, its next WAL
        # ship is rejected at the new epoch and it demotes itself.
        old_key = self.broker.store_keys.get(old_primary)
        try:
            self._probe.with_key(old_key).post(
                f"https://{old_primary}/api/demote", {"Epoch": new_epoch}
            )
        except (TransportError, SensorSafeError):
            pass
        group.epoch = new_epoch
        group.primary = promoted
        group.replicas = [h for h in group.replicas if h != promoted]
        group.demoted.append(old_primary)
        group.missed[promoted] = 0
        group.failovers += 1
        self._rewire(group)
        # Through the directory, not the raw registry: a failover is a
        # route change, and every route change bumps the routing epoch so
        # clients' cached (host, epoch) pairs date themselves.
        moved = self.broker.directory.repoint(old_primary, promoted)
        # Converge the mirror with the promoted store: fencing denies
        # carry bumped versions and must win; force-pull makes the store
        # the authority exactly as restart reconciliation does.
        self.broker.sync.reconcile_host(
            self.broker.client, promoted, self.broker.store_keys
        )
        reregistered = self.broker.enroll_escrowed(old_primary, promoted)[0]
        self._c_failovers.inc()
        detection_ms = self.broker.network.obs.slo.failover_completed(name)
        span.set_attributes(promoted=promoted, old_primary=old_primary,
                            epoch=new_epoch)
        self._record_event("promote", name, promoted, new_epoch, span.trace_id,
                           OldPrimary=old_primary, DetectionMs=detection_ms)
        return {
            "Promoted": promoted,
            "OldPrimary": old_primary,
            "Epoch": new_epoch,
            "Repointed": moved,
            "ConsumersReRegistered": reregistered,
            "FailClosed": list(promotion.get("FailClosed", [])),
            "TraceId": span.trace_id,
            "DetectionMs": detection_ms,
        }

    def _no_candidate(self, group: ReplicaSet, span, reason: str) -> dict:
        """Promote nobody: record the event and leave the set down."""
        self._c_noquorum.inc()
        self._record_event("no-candidate", group.name, None, group.epoch,
                           span.trace_id, OldPrimary=group.primary, Reason=reason)
        return {"Promoted": None, "Reason": reason}

    def _rewire(self, group: ReplicaSet) -> None:
        """Point surviving replicas' shipping links at the new primary.

        Every link is new, so each survivor's first ship is a resync: it
        becomes the new primary's records, not the dead primary's.  With no
        surviving replica the new primary ships to nobody — and
        deliberately does *not* enable shipping, whose barrier would
        reject every write with no replica to ack it.
        """
        primary = group.services.get(group.primary)
        if primary is None or primary.durability is None or not group.replicas:
            return
        shipper = primary.enable_replication()
        shipper.fenced = False
        for host in group.replicas:
            replica = group.services.get(host)
            if replica is not None:
                self._link(shipper, group.primary, replica)
        shipper.pump()

    # ------------------------------------------------------------------
    # Rejoin (a fenced ex-primary or repaired replica returns)
    # ------------------------------------------------------------------

    def rejoin(self, name: str, service) -> dict:
        """Bring a returned store back into a set as a replica.

        The store is re-paired (a restart rotated its keys), demoted at
        the current epoch, and linked into the current primary's shipper,
        whose first ship to it is a resync: its divergent, fenced state
        becomes the primary's records.
        """
        tracer = self.broker.network.obs.tracer
        with tracer.start_span("failover.rejoin", set=name,
                               host=service.host) as span:
            return self._rejoin(name, service, span)

    def _rejoin(self, name: str, service, span) -> dict:
        group = self.sets[name]
        self.broker.attach_store(service)
        service.demote(group.epoch)
        group.services[service.host] = service
        if service.host in group.demoted:
            group.demoted.remove(service.host)
        if service.host not in group.replicas and service.host != group.primary:
            group.replicas.append(service.host)
        group.missed[service.host] = 0
        primary = group.services.get(group.primary)
        if primary is not None and primary.durability is not None:
            shipper = primary.enable_replication()
            self._link(shipper, group.primary, service)
            shipper.pump()
        self._record_event("rejoin", name, service.host, group.epoch,
                           span.trace_id)
        return {"Rejoined": service.host, "Epoch": group.epoch, "Set": name,
                "TraceId": span.trace_id}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def status(self) -> dict:
        """Every set's topology and health, for the CLI and the API."""
        return {
            name: {
                "Primary": group.primary,
                "Replicas": sorted(group.replicas),
                "Demoted": sorted(group.demoted),
                "Epoch": group.epoch,
                "Failovers": group.failovers,
                "Missed": dict(sorted(group.missed.items())),
            }
            for name, group in sorted(self.sets.items())
        }
