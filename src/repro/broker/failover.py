"""Broker-driven failure detection, promotion, and epoch fencing.

The broker is the natural failure detector and directory for replicated
stores: it already holds a key at every store, mirrors every
contributor's rule version, and answers "which host serves contributor
X" for consumers.  It holds host names, keys and epochs only, and
commands a store over the network alone, so a store that does not answer
is told nothing.  This module adds the missing control loop:

* :meth:`FailoverManager.register_set` makes the named hosts a set: the
  primary is promoted (``/api/promote``, the one way a member, which
  reopens as a replica, becomes primary), each replica is demoted, and
  the primary is linked to them (:mod:`repro.storage.replication`);
* :meth:`FailoverManager.heartbeat` probes every member's ``/api/health``
  over the real (simulated, faultable) network; a replicating primary
  pumps its shipper when it answers, so the broker tick is the
  replication tick and a dead primary ships nothing; a live replica the
  primary's answer does not list as linked is linked again;
* after ``miss_threshold`` consecutive failed probes of a primary,
  :meth:`FailoverManager.failover` fences every replica at the next
  epoch, promotes the most-caught-up one, once every replica confirms,
  at a **bumped store epoch**, best-effort demotes the old primary, links
  the survivors to the new one, re-homes the contributor directory,
  force-pulls the promoted store's profiles, and enrolls escrowed
  consumers there; :meth:`FailoverManager.rejoin` of a restarted primary
  runs the same election.

Safety properties, in order of precedence:

1. **Fencing** — the epoch only moves forward, and every replica follows
   the new one before anyone is promoted.  A primary answers a write or
   a read only once a replica holds its journal frame, so one that
   missed the news has that ship answered with 409 and demotes itself
   (or, cut off, gets no ack); its clients' requests bounce with
   :class:`~repro.exceptions.NotPrimaryError` or
   :class:`~repro.exceptions.ReplicationError` and re-resolve here.
2. **Fail closed** — promotion passes the broker's mirrored rule
   versions to the new primary; any contributor whose replicated rules
   lag that mirror is denied by default until their owner re-publishes
   (same contract as crash recovery).  If any replica does not confirm
   its fence, or the one elected does not confirm its promotion, there is *no*
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


def elect(statuses: dict, floor: int = 0) -> tuple:
    """``(host, "")`` to promote given each replica's answer carrying its
    ``Position`` (None: silent), or ``(None, why not)``.  One replica acks
    a write, so all must answer with a known position.  The highest ``(Epoch, Lsn)`` wins, so an
    ex-primary's tail at an older epoch ranks below; ties break on host.
    A winner below ``floor``, the epoch of a primary that served alone, lacks
    what that primary acknowledged: nobody is promoted."""
    if not statuses:
        return None, "no replica"
    silent = sorted(host for host, status in statuses.items() if status is None)
    if silent:
        return None, f"replicas not answering: {silent}"
    unknown = sorted(host for host, status in statuses.items() if status.get("Position") is None)
    if unknown:
        return None, f"replica position unknown: {unknown}"
    rank = {host: status["Position"] for host, status in statuses.items()}
    best = min(rank, key=lambda host: (-rank[host]["Epoch"], -rank[host]["Lsn"], host))
    if rank[best]["Epoch"] < floor:
        return None, f"every replica is behind epoch {floor}, whose primary served alone"
    return best, ""


@dataclass
class ReplicaSet:
    """One replicated store group, from the broker's point of view: host
    names and an epoch (the broker's key at each host is in its
    ``store_keys``)."""

    name: str
    primary: str
    replicas: list = field(default_factory=list)
    epoch: int = 1
    missed: dict = field(default_factory=dict)  # host -> consecutive misses
    demoted: list = field(default_factory=list)  # fenced ex-primaries
    failovers: int = 0
    #: The last epoch a member was promoted at with no survivor to link: it
    #: acknowledged writes no other member holds, so nobody behind it is elected.
    alone: int = 0

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

    def register_set(self, primary: str, replicas, *, name: Optional[str] = None) -> ReplicaSet:
        """Make ``primary`` and ``replicas`` (paired host names) one set.

        The primary is promoted at its own epoch, which the set takes, and
        every replica is linked into it (:meth:`_link`), whose first ship to
        each is a resync, so replicas converge immediately.  Raises when the
        primary took no link (it would acknowledge writes no replica holds).
        """
        set_name = name or primary
        if set_name in self.sets:
            raise SensorSafeError(f"replica set already registered: {set_name!r}")
        epoch = int(self._command(primary, "/api/promote", {"Epoch": 1})["Epoch"])
        group = ReplicaSet(name=set_name, primary=primary, replicas=list(replicas), epoch=epoch)
        group.missed = dict.fromkeys(group.members(), 0)
        if group.replicas and not self._link(group, group.replicas):
            raise SensorSafeError(f"{primary!r} took no replica link")
        self.obs.metrics.gauge("replica_set_epoch", callback=lambda: group.epoch, set=set_name)
        self.sets[set_name] = group
        return group

    def _link(self, group: ReplicaSet, hosts) -> bool:
        """(Re-)link ``hosts`` into the set's primary, as replicas at its epoch.

        Each host is demoted at the set's epoch, and ``/api/demote`` answers
        the key a primary ships there with.  The primary is sent every
        ``{Host, ApiKey}`` on ``/api/replicate/link``; it attaches one new
        link per host and pumps, so each host's first ship is a resync: it
        becomes the primary's records.  Best effort; True when the primary
        took a link.  A host that does not answer is left out (the next
        heartbeat links each live replica its primary does not list).  With
        no host to link, the primary is told nothing.
        """
        links = []
        for host in hosts:
            answer = self._fence(host, group.epoch)
            if answer is not None:
                links.append({"Host": host, "ApiKey": answer["ApiKey"]})
        try:
            return bool(links) and bool(
                self._command(group.primary, "/api/replicate/link", {"Replicas": links})
            )
        except (TransportError, SensorSafeError):
            return False

    def _fence(self, host: str, epoch: int) -> Optional[dict]:
        """Demote ``host`` at ``epoch``; its ``/api/demote`` answer, or None
        when it does not confirm (silent, refusing or shedding).  A fenced
        replica refuses every ship below ``epoch``, so a primary that missed
        the news can no longer have it ack a write or a read."""
        try:
            return self._command(host, "/api/demote", {"Epoch": epoch})
        except (TransportError, SensorSafeError):
            return None

    # ------------------------------------------------------------------
    # Failure detection
    # ------------------------------------------------------------------

    def _command(self, host: str, path: str, body: dict) -> dict:
        """POST ``body`` to ``host`` with the broker's key there; raises as
        the client does."""
        key = self.broker.store_keys.get(host)
        return self._probe.with_key(key).post(f"https://{host}{path}", body)

    def _probe_host(self, host: str) -> Optional[dict]:
        """One ``/api/health`` probe; None when the host missed it."""
        try:
            return self._command(host, "/api/health", {})
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

        Returns a per-set report.  A replicating primary pumps its shipper
        as it answers its probe, so a dead one ships nothing; one answering
        as a replica (demoted) is a miss.  A live replica missing from the
        primary's ``Linked`` answer is linked again.
        """
        self._c_heartbeats.inc()
        slo = self.broker.network.obs.slo
        report = {}
        for name, group in sorted(self.sets.items()):
            health, linked = {}, None
            for host in group.members():
                probe = self._probe_host(host)
                if host == group.primary and probe is not None:
                    linked = probe.get("Linked")
                    probe = None if probe.get("Role") == "replica" else probe
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
            if linked is not None and not group.missed[group.primary]:
                self._link(group, [h for h in group.replicas
                                   if not group.missed[h] and h not in linked])
            failed_over = None
            if group.missed.get(group.primary, 0) >= self.miss_threshold:
                failed_over = self.failover(name)
            report[name] = {
                "Primary": group.primary,
                "Epoch": group.epoch,
                "Health": health,
                "FailedOver": failed_over,
            }
        # The broker tick is also the fleet-telemetry tick: scrape every
        # fleet.interval_ms of simulated time (no-op between intervals).
        self.broker.fleet.maybe_scrape()
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

    def failover(self, name: str, returned: Optional[str] = None) -> dict:
        """Promote the most-caught-up replica of one set.

        ``returned``, the set's own primary back from a restart, is one more
        candidate if its fence answers a known position (:meth:`rejoin`).
        Returns a report; when a replica does not confirm its fence, or the
        elected one does not confirm its promotion, nothing is promoted and the
        directory is left untouched (requests keep failing until the next
        heartbeat's election succeeds — unavailability is the fail-closed
        outcome).
        The whole election runs inside a ``failover.promote`` span, and
        the returned report (and audit record) carries its trace id.
        """
        tracer = self.broker.network.obs.tracer
        with tracer.start_span("failover.promote", set=name) as span:
            report = self._failover(name, span, returned)
        return report

    def _failover(self, name: str, span, returned: Optional[str]) -> dict:
        group = self.sets[name]
        old_primary = group.primary
        # Fence, then elect: once every replica follows an epoch above the
        # old primary's, none can ack it a write or a read, so the one
        # promoted below is the only store that can answer.
        statuses = {h: self._fence(h, group.epoch + 1) for h in group.replicas}
        back = self._fence(returned, group.epoch + 1) if returned else None
        if back and (back["Position"] or not statuses):  # alone, it is not ranked
            statuses[returned] = back
        promoted, reason = (elect(statuses, group.alone) if group.replicas
                            else (back and returned, "no replica"))
        if promoted is None:
            return self._no_candidate(group, span, reason)
        # Above every epoch a replica followed before the fence, so a
        # promotion whose reply was lost is superseded, not repeated.
        new_epoch = 1 + max(
            [group.epoch] + [int(status["PriorEpoch"]) for status in statuses.values()]
        )
        versions = {
            record.name: record.rules_version
            for record in self.broker.registry.on_host(old_primary)
        }
        survivors = [h for h in [*group.replicas, returned] if h not in (None, promoted)]
        try:
            promotion = self._command(promoted, "/api/promote", {
                "Epoch": new_epoch, "RuleVersions": versions, "Replicated": bool(survivors)
            })
        except (TransportError, SensorSafeError):
            return self._no_candidate(group, span, f"{promoted} did not confirm promotion")
        if returned is None:
            self._fence(old_primary, new_epoch)
            group.demoted.append(old_primary)
        group.epoch = new_epoch
        group.alone = group.alone if survivors else new_epoch
        group.primary = promoted
        group.replicas = survivors
        group.missed[promoted] = 0
        group.failovers += 1
        # Every survivor (a returned primary too) gets a new link, so its first
        # ship is a resync: it becomes the new primary's records, not the old's.
        self._link(group, group.replicas)
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

    # ------------------------------------------------------------------
    # Rejoin (a restarted or repaired member returns)
    # ------------------------------------------------------------------

    def rejoin(self, name: str, host: str) -> dict:
        """Bring a returned member (re-paired: a restart rotates keys) back.

        A member reopens as a replica.  The set's own primary stands in the
        set's election (:meth:`failover`; a tie keeps it, a set with no
        replica too): one behind a replica, or that cannot vouch for its tail,
        would resync acked frames away, so it rejoins under the one promoted
        (if nobody is, the heartbeat counts it a miss).  Any other member
        becomes a replica at the current epoch, linked into the primary, whose
        first ship to it is a resync: it becomes the primary's.
        """
        tracer = self.broker.network.obs.tracer
        with tracer.start_span("failover.rejoin", set=name, host=host) as span:
            group = self.sets[name]
            if host == group.primary:
                self.failover(name, returned=host)
            else:
                if host in group.demoted:
                    group.demoted.remove(host)
                if host not in group.replicas:
                    group.replicas.append(host)
                self._link(group, [host])
            group.missed[host] = 0
            self._record_event("rejoin", name, host, group.epoch, span.trace_id)
            return {"Rejoined": host, "Epoch": group.epoch, "Set": name,
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
