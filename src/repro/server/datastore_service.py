"""The remote data store service (paper Fig. 2, left box).

One service instance is one "remote data store": it can live on a
contributor's personal machine (one owner) or an institutional server
(every participant of that institution, per the IRB requirement of
Section 1).  It exposes:

* **upload API** — contributors (their phones) push packets or segments;
* **query API** — consumers pull data, with *every* access regulated by
  the owner's privacy rules;
* **rules API** — owners create/manage privacy rules; each mutation bumps
  a version and is pushed to the broker as a hint (rule sync);
* **profiles API** — the broker pulls rules + places for contributor search;
* **web UI** — mounted by :mod:`repro.server.webui`.

Authentication: API keys in HTTPS POST bodies (Section 5.4).  The broker
itself authenticates with a dedicated key issued at pairing time; only the
broker may read rule snapshots or enroll a consumer (with its groups).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.auth.accounts import ROLE_CONSUMER, ROLE_CONTRIBUTOR, credential, password_matches
from repro.auth.apikeys import ApiKeyRegistry
from repro.datastore.cache import CacheEntry, ReleaseCache, ReleaseSummary, query_shape
from repro.datastore.optimizer import MergePolicy
from repro.datastore.query import DataQuery, QueryResult
from repro.datastore.segment_store import SegmentStore
from repro.datastore.wavesegment import WaveSegment
from repro.exceptions import (
    AuthenticationError,
    AuthorizationError,
    BadRequestError,
    ConflictError,
    NotFoundError,
    NotPrimaryError,
    SensorSafeError,
    ServiceError,
    TransportError,
)
from repro.net.client import HttpClient
from repro.net.http import Request, Response, Router
from repro.net.overload import AdmissionController
from repro.net.transport import Network
from repro.rules.compiler import CompiledRuleCache
from repro.rules.engine import RuleEngine
from repro.rules.parser import rule_from_json, rules_from_json, rules_to_json
from repro.rules.rulestore import RuleStore
from repro.sensors.packets import decode_upload
from repro.server.audit import AuditLog
from repro.server.routes import mount, route
from repro.storage import records
from repro.util import jsonutil
from repro.util.geo import LabeledPlace
from repro.util.idgen import DeterministicRng

BROKER_PRINCIPAL = "__broker__"
PRIMARY_PRINCIPAL = "__primary__"
MOVER_PRINCIPAL = "__mover__"

ROLE_PRIMARY = "primary"
ROLE_REPLICA = "replica"

#: The release cache's resident-byte budget (frame bytes plus overhead).
CACHE_MAX_BYTES = 32 << 20

#: Canonical-JSON bytes of the consumer ``/api/query`` response around its
#: two variable parts — ``{"Raw":false,"Released":`` payload ``,"Scanned":``
#: digits ``}`` — taken from the encoder itself rather than counted by hand.
_RELEASE_ENVELOPE_BYTES = len(
    jsonutil.canonical_dumps({"Raw": False, "Released": [], "Scanned": 0})
) - len("[]0")


@dataclass(frozen=True)
class ReleaseEvent:
    """One engine-mediated release observed on a consumer-facing endpoint.

    ``segments`` are the (possibly merged) wave segments the store served
    to the engine; ``released`` is exactly what left the store.  Release
    guards (see :attr:`DataStoreService.release_guards`) receive these so
    external checkers — notably the conformance harness's query-containment
    invariant — can verify the API never returns more than the engine
    released, without re-implementing the query path.  A cached query
    keeps only its frame, so a hit with guards attached evaluates again
    to raise its event; the cache key fixes every input, so that event
    equals the miss's.

    ``trace_id`` ties the release to the request's trace tree (empty when
    tracing is disabled), so a guard report can name the exact request.
    ``rules_version`` is the contributor's per-contributor sync version
    the release was evaluated under — the fleet-wide monotonic counter the
    privacy-SLO tracker compares against rule-mutation versions to decide
    whether a release was stale (see :mod:`repro.obs.slo`).
    """

    endpoint: str
    consumer: str
    contributor: str
    segments: tuple
    released: tuple
    trace_id: str = ""
    rules_version: int = 0


class DataStoreService:
    """One remote data store mounted on the simulated network."""

    def __init__(
        self,
        host: str,
        network: Network,
        *,
        institution: str = "self-hosted",
        merge_policy: Optional[MergePolicy] = None,
        directory: Optional[str] = None,
        seed: int = 0,
        enforce_closure: bool = True,
        durable: bool = False,
        wal_sync: str = "group",
        storage_faults=None,
        cache_capacity: int = 1024,
        overload: str = "observe",
    ):
        self.host = host
        self.network = network
        self.institution = institution
        #: "primary" serves reads and writes; "replica" only applies shipped
        #: WAL frames until the broker promotes it, and a set member reopens
        #: as one.  The store epoch is the fencing token: it only moves up,
        #: and the broker bumps it at every promotion so a demoted primary's
        #: requests date themselves.  Never below ``position()["Epoch"]``,
        #: which elections rank by: a restart starts it at the manifest's.
        self.role = ROLE_PRIMARY
        self.epoch = 1
        #: :class:`~repro.storage.replication.WalShipper` once the broker
        #: links replicas here (``/api/replicate/link``).
        self.replication = None
        self._applier = None
        rng = DeterministicRng(seed).fork(f"store:{host}")
        #: Where snapshots, the WAL and quarantine live (``None``: memory only).
        self.directory = directory
        self.store = SegmentStore(host, merge_policy=merge_policy, obs=network.obs)
        self.rules = RuleStore()
        self.audit = AuditLog()
        self.enforce_closure = enforce_closure
        self.roles: dict[str, str] = {}
        self.places: dict[str, dict] = {}  # contributor -> {label: LabeledPlace}
        self.memberships: dict[str, frozenset] = {}  # enrolled consumer -> groups
        self.credentials: dict[str, tuple] = {}  # contributor -> (salt, password hash)
        self._registered_at: dict[str, int] = {}  # contributor -> LSN of her new role row
        #: Observers called with a :class:`ReleaseEvent` after every
        #: engine-mediated release.  Guards must not mutate anything; a
        #: guard raising aborts the request (fail closed, nothing leaks).
        self.release_guards: list[Callable[[ReleaseEvent], None]] = []
        #: ``(url, client)`` this store pushes rule changes to the broker
        #: with (eager sync), built at pairing; None: the broker only pulls.
        self._push_to: Optional[tuple] = None
        #: Contributors whose persisted rules could not be trusted after a
        #: restart: they are deny-by-default until rules are re-published.
        self.fail_closed: set = set()
        #: Versioned rule-decision cache for the consumer-query hot path
        #: (``None`` disables it); a zero capacity turns the cache off.
        self.release_cache: Optional[ReleaseCache] = None
        if cache_capacity > 0:
            self.release_cache = ReleaseCache(
                cache_capacity, CACHE_MAX_BYTES, obs=network.obs, store=host
            )
        #: ``(request, query, shape)`` the admission probe parsed, until the
        #: handler of that same request takes it (:meth:`_probed_query`).
        self._probed: Optional[tuple] = None
        #: Per-contributor compiled rule artifacts, keyed by the same
        #: store-wide rules-version epoch as the release cache.
        self.compiled_rules = CompiledRuleCache(obs=network.obs, store=host)
        self.durability = None
        self.recovery_report = None
        self.router = Router()
        #: Overload control: admission + brownout on every route, by
        #: the class each declaration carries.  "observe" (the default)
        #: accounts and reports would-shed decisions without shedding;
        #: "enforce" sheds with typed 503/504s *before* rule evaluation.
        self.admission = AdmissionController(
            host,
            network,
            mode=overload,
            classes=mount(self, self.router, {}),
            cache_probe=self._cache_would_hit,
        )
        self.admission.attach(self.router)
        if durable:
            from repro.storage.durability import Durability

            self.durability = Durability(
                self, sync=wal_sync, faults=storage_faults
            )
            self.recovery_report = self.durability.open()
            self.epoch = max(self.epoch, self.recovery_report.epoch or 1)
            if self.durability.member:
                self.role = ROLE_REPLICA
        # Keys and salts never repeat across a restart: a durable store's
        # nonces start at its boot number (counted on disk by the open,
        # before anything is served) times 2**32.  A store in memory never
        # restarts and keeps the seed's streams from nonce 0.
        first = self.durability.boot << 32 if self.durability is not None else 0
        self.keys = ApiKeyRegistry(f"secret:{host}", rng.fork("keys", first_nonce=first))
        self._salts = rng.fork("salts", first_nonce=first)
        # Join the network only once recovery has succeeded: a failed
        # open() must leave no half-constructed host registered, or the
        # constructor retry dies on "host name already registered" instead
        # of the real storage error.
        network.register_host(host, self.router)
        # Registered after durability: a rule change is journaled (write-
        # ahead, force-synced) before the eager broker push propagates it,
        # so a crash between the two leaves the *store* ahead — which the
        # broker's restart reconciliation converges by pulling.
        self.rules.on_change(self._on_rules_changed)

    # ------------------------------------------------------------------
    # Broker pairing
    # ------------------------------------------------------------------

    def pair_broker(self, broker: str, push_key: str) -> str:
        """Issue the broker's API key: this store's half of the operator's
        key exchange (:func:`repro.core.system.pair`).

        Given the ``broker``'s host and the ``push_key`` it issued this
        store, every change to a contributor's profile is pushed to its
        ``/api/sync`` (eager sync); given ``""``, the broker only pulls.
        """
        if self.roles.get(BROKER_PRINCIPAL) != "broker":  # a re-pairing takes no LSN
            self._assign(records.OP_ROLE, {"Principal": BROKER_PRINCIPAL, "Role": "broker"})
        self._push_to = None if not broker else (
            f"https://{broker}/api/sync", HttpClient(self.network, name=self.host, api_key=push_key)
        )
        return self.keys.issue(BROKER_PRINCIPAL)

    def _on_rules_changed(self, snapshot) -> None:
        contributor = snapshot.contributor
        # An owner re-publishing rules lifts the post-recovery deny state.
        records.lift_fail_closed(self, contributor)
        # Open a revocation-latency window: releases evaluated at versions
        # below this mutation are stale until a fresh one settles it.  The
        # listener runs inside the mutation, so the tracker's clock reads
        # the mutation's instant.
        self.network.obs.slo.rule_mutated(contributor, snapshot.version, store=self.host)
        self._push_profile(contributor)

    def _push_profile(self, contributor: str) -> None:
        """Hint the paired broker that ``contributor``'s profile moved.

        Only a hint: a push that is dropped, refused or shed changes
        nothing here and fails no owner's edit, whose replication barrier
        then runs as for any write.  The broker's next pull repairs its
        mirror (DESIGN.md, "The broker's mirror converges one way").
        """
        if self._push_to is None:
            return
        url, client = self._push_to
        try:
            client.post(url, {"Profile": self._profile_json(contributor)})
        except (TransportError, ServiceError):
            pass

    def _profile_json(self, contributor: str) -> dict:
        snapshot = self.rules.snapshot(contributor)
        return {
            "Contributor": contributor,
            "Host": self.host,
            "Institution": self.institution,
            "Version": snapshot.version,
            "Rules": rules_to_json(snapshot.rules),
            "Places": [p.to_json() for p in self.places.get(contributor, {}).values()],
        }

    # ------------------------------------------------------------------
    # Replication & failover
    # ------------------------------------------------------------------

    @property
    def is_primary(self) -> bool:
        """True when this store currently serves reads and writes."""
        return self.role != ROLE_REPLICA

    @property
    def applier(self):
        """This store's frame applier, created by the first ship it takes."""
        if self._applier is None:
            from repro.storage.replication import ReplicaApplier

            self._applier = ReplicaApplier(self)
        return self._applier

    def enable_replication(self):
        """Start shipping this store's WAL to replicas; returns the shipper.

        A replica attached to it starts with a resync — every record this
        store holds, which the replica becomes — so state written before
        replication was wired (roles, early rules) reaches it too.
        """
        if self.replication is None:
            from repro.storage.replication import WalShipper

            self.replication = WalShipper(self)
        return self.replication

    def pair_primary(self) -> str:
        """Issue the API key a primary uses to ship WAL frames here."""
        # Not journaled: the pairing lives as long as the key it issues,
        # and keys rotate at restart.
        records.apply(
            self,
            records.OP_ROLE,
            {"Principal": PRIMARY_PRINCIPAL, "Role": records.ROLE_PAIRED_PRIMARY},
            journal=False,
        )
        return self.keys.issue(PRIMARY_PRINCIPAL)

    def accept_move(self, contributors, source: str) -> str:
        """Issue the key ``source`` installs one move's range here with.

        ``/api/migrate/install`` takes it only from ``source``, and only
        with records of ``contributors``.  Its principal is the move's
        scope, a tuple no registration can name.  Not journaled and in no
        dump: it dies at restart, like :meth:`pair_primary`'s key.
        """
        names = tuple(sorted({str(c) for c in contributors}))
        return self.keys.issue((MOVER_PRINCIPAL, str(source), names))

    def _end_move(self, contributors) -> None:
        """A move of any of ``contributors`` ended (its cutover, or a fence
        here that aborts it): the key :meth:`accept_move` issued for it dies."""
        names = {str(c) for c in contributors}
        for principal in self.keys.principals():
            if isinstance(principal, tuple) and names.intersection(principal[2]):
                self.keys.revoke(principal)

    def promote(self, epoch: int, rule_versions: Optional[dict] = None) -> dict:
        """Become the primary at ``epoch`` (broker-driven failover).

        ``rule_versions`` is the broker's mirror of per-contributor rule
        versions at its last successful sync.  Privacy stays fail-closed
        across the handover: any contributor whose applied rules are
        *older* than what the broker last saw — or entirely unknown here —
        is denied by default until their owner re-publishes rules, exactly
        like the unverifiable-rules recovery path.  A promotion may deny;
        it must never widen access.

        The journal takes the new epoch first, in the manifest that marks the
        store a set member (its log keeps its primary's numbering).  The
        role changes only once the fence has run, so a promotion that dies
        mid-fence leaves a replica for the next election.  The report's
        ``FailClosed`` lists every mirrored contributor now denied here, not
        only those this call fenced: a re-election of a store whose earlier
        promotion ran but whose reply was lost must still name them.
        """
        rule_versions = rule_versions or {}
        self.epoch = max(self.epoch, int(epoch))
        if self.durability is not None:
            self.durability.join(self.epoch)
        self._fence_rule_versions(rule_versions)
        self.role = ROLE_PRIMARY
        return {
            "Host": self.host,
            "Epoch": self.epoch,
            "FailClosed": sorted(c for c in rule_versions if c in self.fail_closed),
        }

    def _fence_rule_versions(self, rule_versions: Optional[dict]) -> list:
        """Deny-by-default any contributor whose rules lag the broker mirror.

        The shared handover fence (promotion *and* migration cutover): each
        contributor whose applied rule version is older than what the
        broker last saw — or entirely unknown here — is failed closed
        (:func:`repro.storage.records.fail_close`, recovery's routine) at
        a version *above* the broker's, so the deny state wins the next
        sync instead of the broker's stale-but-newer-looking mirror.  The
        deny moves the rules epoch and the fail-closed flag, both
        cache-key components, so nothing cached before it is reachable.
        A handover may deny; it must never widen access.
        """
        fenced = []
        for contributor, version in sorted((rule_versions or {}).items()):
            if self.rules.version_of(contributor) < int(version):
                records.fail_close(self, contributor, int(version) + 1)
                fenced.append(contributor)
        return fenced

    def demote(self, epoch: Optional[int] = None) -> dict:
        """Step down to replica (fenced or demoted by hand); it reopens as one."""
        self.role = ROLE_REPLICA
        if self.durability is not None:
            self.durability.join()
        if epoch is not None:
            self.epoch = max(self.epoch, int(epoch))
        return {"Host": self.host, "Epoch": self.epoch, "Role": self.role}

    def _require_writable(self) -> None:
        if not self.is_primary:
            raise NotPrimaryError(
                f"store {self.host!r} is a replica (epoch {self.epoch}); "
                "re-resolve the contributor's primary at the broker"
            )

    def _require_resident(self, contributor: str) -> None:
        """Fence requests for a contributor migrated off this store: her
        role row here is ``moved`` (:meth:`_h_migrate_fence`).

        Raises the same :class:`NotPrimaryError` (409) as a demoted
        primary, so the client's existing one-fenced-retry path handles
        both: drop the cached route, re-resolve at the broker directory,
        retry once against the destination.
        """
        if self.roles.get(contributor) == records.ROLE_MOVED:
            raise NotPrimaryError(
                f"contributor {contributor!r} migrated off {self.host!r}; "
                "re-resolve at the broker directory"
            )

    def _barrier_mark(self) -> Optional[int]:
        """The journal's end as a request comes in, when this store ships
        under acknowledgements (a replicating primary); None when it does
        not, and the request's records ship under no ack of its own: a
        replica's, and a promotion's (:class:`~repro.server.routes.route`).
        An unreplicated store pays the attribute check alone."""
        if self.replication is None or not self.is_primary:
            return None
        return self.replication.last_lsn()

    def _replication_barrier(self, mark: int, writes: bool) -> None:
        """Ship WAL frames produced by the request that just ran.

        This is the commit acknowledgement barrier, run after every
        ``writes`` request and every request whose handler journaled (the
        journal's end moved past ``mark``): the request fails (503,
        retryable) unless a replica holds the frames.  A read's frame is
        its audit record, so a replicated primary answers a read only once
        a replica still following its epoch holds it: that round trip is
        its proof of primacy (a fenced one hears 409 and demotes itself).
        """
        if writes or self.replication.last_lsn() != mark:
            self.replication.after_write()

    # ------------------------------------------------------------------
    # Registration helpers (used directly by the system facade too)
    # ------------------------------------------------------------------

    def register_contributor(self, name: str, password: str = "pw") -> str:
        """Register a data owner, or re-key one; returns a fresh API key.

        A new name's role record carries its salted password hash, so every
        store the row reaches can check it.  A known owner is re-keyed only
        for that password (:meth:`check_password`); another role's is 409.
        """
        role = self.roles.get(name)
        if role is None:
            salted = credential(password, self._salts)
            row = {"Principal": name, "Role": ROLE_CONTRIBUTOR, **salted}
            self._registered_at[name] = self._assign(records.OP_ROLE, row) or 0
        elif role != ROLE_CONTRIBUTOR:
            raise ConflictError(f"{name!r} is registered here as {role!r}")
        else:
            self.check_password(name, password)
        return self.keys.issue(name)

    def check_password(self, name: str, password: str) -> None:
        """401 unless ``password`` matches ``name``'s contributor role record.

        Consumers, peers and rows written before rows carried a credential
        have none, so they are refused alike.
        """
        salted = self.credentials.get(name)
        is_owner = self.roles.get(name) == ROLE_CONTRIBUTOR and salted is not None
        if not (is_owner and password_matches(*salted, password)):
            raise AuthenticationError("bad username or password")

    def register_consumer(self, name: str, groups=()) -> str:
        """Enroll a consumer (the broker's ``/api/enroll``); returns its key.

        Its role record gains ``Groups``, which is what makes the store
        vouch for it.  Groups only add up (a study has no leave; dropping a
        recovered one would lift a group deny), and a key is issued only
        when there is none, so a late study join rotates nothing.  A
        consumer has no password here: it reaches a store with the key the
        broker escrows, and logs in at the broker.
        """
        if self.roles.get(name, ROLE_CONSUMER) != ROLE_CONSUMER:
            raise ConflictError(
                f"{name!r} is registered here as {self.roles[name]!r}"
            )
        groups = self.memberships.get(name, frozenset()).union(groups)
        self._assign(
            records.OP_ROLE,
            {"Principal": name, "Role": ROLE_CONSUMER, "Groups": sorted(groups)},
        )
        return self.keys.key_of(name) or self.keys.issue(name)

    def set_places(self, contributor: str, places: dict) -> None:
        """Replace a contributor's labeled places (install + journal + sync).

        The installer moves the rules epoch, so decisions cached under the
        old places are unreachable from here on.
        """
        self._assign(records.OP_PLACES, records.places_record(contributor, places))
        # Places affect rule semantics; nudge a sync so the broker's
        # search sees the same geography the engine enforces.
        self._push_profile(contributor)

    def _assign(self, op: str, data: dict) -> Optional[int]:
        """A live "assign complete state" mutation, as one of this store's own;
        returns its LSN (None: not journaled).

        Places and principal roles have no store object that versions or
        hashes them, so the live write *is* the record: install it the way
        a replay would, then journal it.
        """
        records.apply(self, op, data, journal=False)
        if self.durability is not None:
            return self.durability.journal(op, data)
        return None

    def _wal_commit(self) -> None:
        """Group-commit barrier: journaled bulk mutations become durable.

        Only *barrier-bearing* requests call this — ``flush`` (the client's
        explicit durability point: upload…upload…flush ⇒ everything
        uploaded is on disk before the flush ack) and ``delete`` (an acked
        deletion must never resurrect).  Plain uploads ride the group
        window instead: under the ``group`` sync policy a crash can lose
        the last un-flushed uploads, which the device still holds and
        re-sends — the bounded-loss trade that keeps WAL ingest overhead
        inside the C10 budget.  Control-plane records (rules, roles,
        places, audit) never ride the window; they force-sync at append.
        """
        if self.durability is not None:
            self.durability.commit()

    def position(self) -> Optional[dict]:
        """Its ``{"Epoch", "Lsn"}``, or None when its journal cannot vouch."""
        journal = self.durability
        if journal is None or journal.epoch is None or journal.wal is None:
            return None
        return {"Epoch": journal.epoch, "Lsn": journal.wal.last_lsn}

    def checkpoint(self) -> dict:
        """Snapshot state, write the generation manifest, reset the WAL."""
        if self.durability is None:
            from repro.storage.durability import write_snapshot

            return {"Paths": write_snapshot(self)}
        return self.durability.checkpoint()

    # ------------------------------------------------------------------
    # Auth plumbing
    # ------------------------------------------------------------------

    def _authenticate(self, request: Request) -> str:
        return self.keys.authenticate(request.api_key)

    def _known_contributor(self, request: Request) -> str:
        """The ``Contributor`` named: resident here (else 409), registered (else 404)."""
        contributor = str(request.body.get("Contributor", ""))
        self._require_resident(contributor)
        if contributor not in self.rules.contributors():
            raise NotFoundError(f"no such contributor here: {contributor!r}")
        return contributor

    def _caller_key(self, request: Request) -> None:
        """Any valid key but a move's, which installs its range and nothing else."""
        if isinstance(self._authenticate(request), tuple):
            raise AuthorizationError("a move's key installs its range and nothing else")

    def _caller_broker(self, request: Request) -> None:
        """The paired broker's key."""
        if self.roles.get(self._authenticate(request)) != "broker":
            raise AuthorizationError("endpoint restricted to the paired broker")

    def _caller_primary(self, request: Request) -> None:
        """The paired replication primary's key."""
        if self.roles.get(self._authenticate(request)) != records.ROLE_PAIRED_PRIMARY:
            raise AuthorizationError("endpoint restricted to the paired primary")

    def _caller_mover(self, request: Request) -> tuple:
        """A key :meth:`accept_move` issued, sent by that move's source;
        answers the contributors the move may install."""
        principal = self._authenticate(request)
        if not isinstance(principal, tuple) or principal[:2] != (MOVER_PRINCIPAL, request.client):
            raise AuthorizationError("endpoint restricted to an accepted move's source")
        return (frozenset(principal[2]),)

    def _caller_owner(self, request: Request) -> tuple:
        """The named ``Contributor``'s own key, resident here, a contributor —
        residency first, so a moved owner's stale key gets the 409 she re-resolves on."""
        contributor = str(request.body.get("Contributor", ""))
        principal = self._authenticate(request)
        if principal != contributor:
            raise AuthorizationError(
                f"principal {principal!r} may not act for contributor {contributor!r}"
            )
        self._require_resident(contributor)
        if self.roles.get(principal) != ROLE_CONTRIBUTOR:
            raise AuthorizationError(f"{principal!r} is not a data contributor")
        return (contributor,)

    def _caller_reader(self, request: Request) -> tuple:
        """The owner's key or an enrolled consumer's (its role record carries
        its groups); ``Contributor`` named, resident, known."""
        principal = self._authenticate(request)
        contributor = request.body.get("Contributor", "")
        if contributor == "":
            raise BadRequestError(f"{request.path} needs a Contributor")
        if principal != contributor and principal not in self.memberships:
            raise AuthorizationError(f"{principal!r} is not a consumer enrolled here")
        return principal, self._known_contributor(request)

    def _membership(self, consumer: str) -> frozenset:
        return frozenset({consumer}) | self.memberships.get(consumer, frozenset())

    def _engine_for(self, contributor: str) -> RuleEngine:
        # Belt and braces: recovery already emptied a fail-closed
        # contributor's rules, and an empty rule set is default-deny.
        fail_closed = contributor in self.fail_closed
        artifact = self.compiled_rules.artifact_for(
            contributor,
            epoch=self.rules.rules_version,
            fail_closed=fail_closed,
            rules=() if fail_closed else self.rules.rules_of(contributor),
            places=self.places.get(contributor, {}),
            enforce_closure=self.enforce_closure,
        )
        return RuleEngine(
            membership=self._membership, compiled=artifact, obs=self.network.obs
        )

    def _trace_id(self) -> str:
        return self.network.obs.tracer.current_trace_id()

    def _emit_release(
        self, endpoint: str, consumer: str, contributor: str, segments, released
    ) -> None:
        if not self.release_guards:
            return
        event = ReleaseEvent(
            endpoint=endpoint,
            consumer=consumer,
            contributor=contributor,
            segments=tuple(segments),
            released=tuple(released),
            trace_id=self._trace_id(),
            rules_version=self.rules.version_of(contributor),
        )
        for guard in self.release_guards:
            guard(event)

    # ------------------------------------------------------------------
    # Cached release resolution (the consumer-query hot path)
    # ------------------------------------------------------------------

    def _cache_key(self, principal: str, contributor: str, shape: str) -> tuple:
        """Everything a release decision depends on, folded into one key.

        Membership is keyed directly (a reverted membership may correctly
        resurrect an old entry); rules ride the store-wide epoch; stored
        segments ride the contributor's data epoch; the fail-closed flag
        covers recovery denying a contributor without a rule bump.
        Labeled places ride the rules epoch (their one installer,
        :func:`repro.storage.records.apply`, moves it).  Every input is an
        epoch or its own value, so no event has to drop an entry.  ``shape``
        is the query's :func:`~repro.datastore.cache.query_shape`.
        """
        return (
            principal,
            self._membership(principal),
            contributor,
            contributor in self.fail_closed,
            self.rules.rules_version,
            self.store.data_epoch(contributor),
            shape,
        )

    def _cache_would_hit(self, request: Request) -> bool:
        """Would this query be served from the release cache?

        The admission controller's brownout probe: under pressure, cold
        (cache-miss) queries shed while cached releases keep serving.
        Best-effort and non-mutating — any auth or parse problem classifies
        as cold, and the real handler raises the proper error after
        admission.  Owner raw reads never touch the cache.  The query it
        parses and the shape it dumps are left for this request's handler
        (:meth:`_probed_query`); the key's other inputs are read again there.
        """
        cache = self.release_cache
        if cache is None or len(cache) == 0:
            return False
        try:
            principal = self.keys.authenticate(request.api_key)
            contributor = str(request.body.get("Contributor", ""))
            if not contributor or principal == contributor:
                return False
            query = DataQuery.from_json(request.body.get("Query", {}))
            shape = query_shape(query)
            self._probed = (request, query, shape)
            return cache.contains(self._cache_key(principal, contributor, shape))
        except SensorSafeError:
            return False

    def _probed_query(self, request: Request) -> tuple:
        """``(query, shape)`` of ``request``: what the admission probe parsed
        and dumped if it probed this very request, else the query parsed
        here and no shape.  The probe's parse is taken once, whoever takes
        it, so none outlives the request it was made for; a parse taken by
        another request's handler costs this one a parse, never a wrong key."""
        probed, self._probed = self._probed, None
        if probed is not None and probed[0] is request:
            return probed[1], probed[2]
        return DataQuery.from_json(request.body.get("Query", {})), None

    def _release_for(
        self, principal: str, contributor: str, query: DataQuery, shape: Optional[str] = None
    ) -> CacheEntry:
        """Resolve one consumer ``/api/query`` to the frame it is served, cached.

        On a miss (or with the cache disabled) this runs the full path —
        store query, rule-engine evaluation, encoding — and keeps only the
        frame and its totals.  An unguarded hit touches neither store nor
        engine.  With release guards attached a hit evaluates again for its
        :class:`ReleaseEvent`: the key fixes every input of the evaluation,
        so the event equals the miss's, and the harness still compares it
        with the frame served.  ``shape`` is the query's, when the caller
        already dumped it.
        """
        endpoint = "/api/query"
        cache = self.release_cache
        key = entry = None
        if cache is not None:
            key = self._cache_key(principal, contributor, shape or query_shape(query))
            entry = cache.get(key)
            # The probe rides the enclosing request span as an attribute:
            # the lookup is a dict hit, far below span granularity.
            span = self.network.obs.tracer.current_span()
            if span is not None:
                span.set_attribute("cache_hit", entry is not None)
        if entry is None:
            entry = CacheEntry.of(*self._evaluate_release(endpoint, principal, contributor, query))
            if cache is not None:
                cache.put(key, entry)
        elif self.release_guards:
            self._evaluate_release(endpoint, principal, contributor, query)
        else:
            # Still a served query for the store's bookkeeping, but it scans
            # nothing: that is the point.
            self.store.stats.queries_served += 1
        return entry

    def _evaluate_release(
        self, endpoint: str, principal: str, contributor: str, query: DataQuery
    ) -> tuple:
        """The uncached path: store scan + rule engine, then the release
        guards.  Returns ``(released pieces, segments scanned)``."""
        result = self.store.query(contributor, query)
        released = tuple(self._engine_for(contributor).evaluate(principal, result.segments))
        self._emit_release(endpoint, principal, contributor, result.segments, released)
        return released, result.scanned_segments

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------

    @route("POST", "/api/register", caller="open", admission="control")
    def _h_register(self, request: Request) -> dict:
        """Open contributor registration, and an owner's re-key.

        A known owner gets a fresh key only for the password on their role
        row (401 for another, 409 for none): that is how a restarted
        store's owner and ``repoint_contributor`` get a key back, as keys
        are never replicated.  Consumers come through ``/api/enroll``.
        ``open``, not ``writes``: it refuses on a replica itself.  A new
        name's role row ships under the request's own ack (the barrier
        follows the journal); a re-key journals nothing, so it is answered
        during a link gap, unless it retries a registration whose row no
        replica holds yet: the first attempt's 503 left that row here alone.
        """
        self._require_writable()
        body = request.body
        name = body.get("Username")
        role = body.get("Role")
        if role == ROLE_CONSUMER:
            raise AuthorizationError("consumers are enrolled by the paired broker")
        if not name or role != ROLE_CONTRIBUTOR:
            raise BadRequestError("registration needs a Username and Role contributor")
        name, password = str(name), body.get("Password")
        if password is None and name in self.roles:
            raise ConflictError(f"{name!r} is registered here; re-key with its Password")
        pending = self._registered_at.get(name, 0) if name in self.roles else 0
        key = self.register_contributor(name, "pw" if password is None else str(password))
        if self.replication is not None and pending > self.replication.acked_lsn():
            self.replication.after_write()  # a retry answers once a replica holds her row
        return {"ApiKey": key, "Host": self.host}

    @route("POST", "/api/upload", caller="owner", admission="upload", writes=True)
    def _h_upload(self, request: Request, contributor: str) -> dict:
        """Decode and check, then ingest: a request refused for its third
        segment (400, 403) has put nothing into the optimizer or the store."""
        segments = [WaveSegment.from_json(obj) for obj in request.body.get("Segments", [])]
        if any(segment.contributor != contributor for segment in segments):
            raise AuthorizationError("cannot upload segments owned by someone else")
        before = self.store.duplicate_uploads
        stored = len(self.store.add_segments(segments))
        duplicates = self.store.duplicate_uploads - before
        return {"Accepted": len(segments), "Finalized": stored, "Duplicates": duplicates}

    @route("POST", "/api/upload_packets", caller="owner", admission="upload", writes=True)
    def _h_upload_packets(self, request: Request, contributor: str) -> dict:
        """The phone's uplink: one :func:`~repro.sensors.packets.encode_upload`
        frame per request.  Decode, then ingest: a frame the parser refuses
        (400) has put nothing into the optimizer, the store or the log.  The
        frame and its optional flush are one store call, so what they
        finalize is journaled as one segment batch record."""
        packets = decode_upload(request.body.get("Upload"))
        span = self.network.obs.tracer.current_span()
        if span is not None:
            # Counts only.  "readings", because the redaction boundary
            # strips any key that says "sample", whatever it holds.
            span.set_attributes(
                packets=len(packets), readings=sum(len(p.values) for p in packets)
            )
        flush = bool(request.body.get("Flush"))
        stored = self.store.add_packets(contributor, packets, flush=flush)
        reply = {"Accepted": len(packets), "Finalized": len(stored)}
        if flush:
            # The phone's last chunk carries its flush: one store call, one
            # record, one ack (fsynced here, held by a replica).
            self._wal_commit()
            reply["Flushed"] = True
        return reply

    def _flush_store(self) -> int:
        """The client's durability point: finalize open segments, then fsync."""
        finalized = len(self.store.flush())
        self._wal_commit()
        return finalized

    @route("POST", "/api/flush", caller="owner", admission="upload", writes=True)
    def _h_flush(self, request: Request, contributor: str) -> dict:
        return {"Finalized": self._flush_store()}

    def _regulated_read(
        self,
        endpoint: str,
        principal: str,
        contributor: str,
        query: DataQuery,
        audited: dict,
        shape: Optional[str] = None,
    ) -> Union[QueryResult, CacheEntry, tuple]:
        """One read of a contributor's data, costed and audited once.

        The owner reading their own data bypasses the engine — the paper's
        web UI lets contributors "view their own data" unfiltered — and
        gets the store's :class:`QueryResult`.  Anyone else gets what their
        rules release: a query the :class:`CacheEntry` it is served
        (:meth:`_release_for`), an aggregate the released pieces, evaluated
        afresh.  ``audited`` is the query as the owner's trail should show
        it; ``shape`` its cache shape, when already dumped.
        """
        costs = self.network.obs.costs
        token = costs.start(self.host)
        raw = principal == contributor
        if raw:
            read = self.store.query(contributor, query)
            scanned, summary = read.scanned_segments, ReleaseSummary()
            pieces = len(read.segments)
            released_bytes = sum(s.storage_bytes() for s in read.segments)
        else:
            if endpoint == "/api/query":
                read = self._release_for(principal, contributor, query, shape)
                scanned, summary = read.scanned, read.summary
            else:
                read, scanned = self._evaluate_release(endpoint, principal, contributor, query)
                summary = ReleaseSummary.of(read)
            self.network.obs.slo.release_observed(
                contributor, self.rules.version_of(contributor), store=self.host
            )
            pieces, released_bytes = summary.pieces, summary.released_bytes
        self.audit.record_access(
            principal=principal,
            contributor=contributor,
            query=audited,
            raw_access=raw,
            segments_scanned=scanned,
            summary=summary,
            trace_id=self._trace_id(),
        )
        costs.finish(
            token,
            endpoint=endpoint,
            consumer=principal,
            contributor=contributor,
            segments_released=pieces,
            released_bytes=released_bytes,
        )
        return read

    @route("POST", "/api/query", caller="reader", admission="query", writes=True)
    def _h_query(
        self, request: Request, principal: str, contributor: str
    ) -> Union[dict, Response]:
        """The query API: every access regulated by the owner's rules."""
        query, shape = self._probed_query(request)
        read = self._regulated_read(
            "/api/query", principal, contributor, query, query.to_json(), shape
        )
        if principal == contributor:
            return {
                "Raw": True,
                "Segments": [s.to_json() for s in read.segments],
                "Scanned": read.scanned_segments,
            }
        return Response(
            body={
                "Raw": False,
                "Released": dict(read.payload),
                "Scanned": read.scanned,
            },
            wire_bytes=_RELEASE_ENVELOPE_BYTES
            + read.payload_bytes
            + len(str(read.scanned)),
        )

    @route("POST", "/api/rules/list", caller="owner", admission="control")
    def _h_rules_list(self, request: Request, contributor: str) -> dict:
        snapshot = self.rules.snapshot(contributor)
        return {"Version": snapshot.version, "Rules": rules_to_json(snapshot.rules)}

    @route("POST", "/api/rules/add", caller="owner", admission="control", writes=True)
    def _h_rules_add(self, request: Request, contributor: str) -> dict:
        rule = rule_from_json(request.body.get("Rule", {}))
        self.rules.add(contributor, rule)
        return {"RuleId": rule.rule_id, "Version": self.rules.version_of(contributor)}

    @route("POST", "/api/rules/remove", caller="owner", admission="control", writes=True)
    def _h_rules_remove(self, request: Request, contributor: str) -> dict:
        rule_id = str(request.body.get("RuleId", ""))
        self.rules.remove(contributor, rule_id)
        return {"Removed": rule_id, "Version": self.rules.version_of(contributor)}

    @route("POST", "/api/rules/replace", caller="owner", admission="control", writes=True)
    def _h_rules_replace(self, request: Request, contributor: str) -> dict:
        rules = rules_from_json(request.body.get("Rules", []))
        self.rules.replace_all(contributor, rules)
        return {"Count": len(rules), "Version": self.rules.version_of(contributor)}

    @route("POST", "/api/rules/download", caller="owner", admission="control")
    def _h_rules_download(self, request: Request, contributor: str) -> dict:
        """The phone downloads its owner's rules for rule-aware collection."""
        snapshot = self.rules.snapshot(contributor)
        return {
            "Version": snapshot.version,
            "Rules": rules_to_json(snapshot.rules),
            "Places": [p.to_json() for p in self.places.get(contributor, {}).values()],
        }

    @route("POST", "/api/places/set", caller="owner", admission="control", writes=True)
    def _h_places_set(self, request: Request, contributor: str) -> dict:
        places = {}
        for obj in request.body.get("Places", []):
            place = LabeledPlace.from_json(obj)
            places[place.label] = place
        self.set_places(contributor, places)
        return {"Count": len(places)}

    @route("POST", "/api/places/list", caller="owner", admission="control")
    def _h_places_list(self, request: Request, contributor: str) -> dict:
        return {"Places": [p.to_json() for p in self.places.get(contributor, {}).values()]}

    @route("POST", "/api/enroll", caller="broker", admission="control", writes=True)
    def _h_enroll(self, request: Request) -> dict:
        """Broker-only: enroll a consumer with its groups; answers its key."""
        consumer = str(request.body.get("Consumer", ""))
        groups = request.body.get("Groups", [])
        if not consumer or not isinstance(groups, list):
            raise BadRequestError("enrollment needs a Consumer and a list of Groups")
        key = self.register_consumer(consumer, groups=map(str, groups))
        return {"ApiKey": key, "Host": self.host}

    @route("POST", "/api/aggregate", caller="reader", admission="aggregate", writes=True)
    def _h_aggregate(self, request: Request, principal: str, contributor: str) -> dict:
        """Windowed aggregates, computed behind the rule engine.

        A consumer's aggregate only ever sees the raw payload their rules
        release; the owner aggregates over everything.
        """
        from repro.datastore.aggregate import (
            AggregateSpec,
            aggregate_released,
            aggregate_segments,
        )

        query = DataQuery.from_json(request.body.get("Query", {}))
        spec = AggregateSpec.from_json(request.body.get("Aggregate", {}))
        audited = {**query.to_json(), "Aggregate": spec.to_json()}
        read = self._regulated_read(
            "/api/aggregate", principal, contributor, query, audited
        )
        if principal == contributor:
            rows = aggregate_segments(read.segments, spec)
        else:
            rows = aggregate_released(read, spec)
        return {"Rows": [r.to_json() for r in rows]}

    @route("POST", "/api/delete", caller="owner", admission="upload", writes=True)
    def _h_delete(self, request: Request, contributor: str) -> dict:
        """Owner-only data deletion — the teeth behind "data ownership".

        Remote data stores exist so contributors keep control of their
        data; that includes destroying it.  Only the owner may delete, and
        deletions are recorded in the audit trail — before the barrier, so
        the entry ships under the same acknowledgement as the deletion.
        """
        query = DataQuery.from_json(request.body.get("Query", {}))
        removed = self.store.delete(contributor, query)
        self._wal_commit()
        self.audit.record_access(
            principal=contributor,
            contributor=contributor,
            query={**query.to_json(), "Delete": True},
            raw_access=True,
            segments_scanned=removed,
            trace_id=self._trace_id(),
        )
        return {"Deleted": removed}

    @route("POST", "/api/audit/list", caller="owner", admission="query")
    def _h_audit_list(self, request: Request, contributor: str) -> dict:
        """The owner's access trail: who queried what, what left the store."""
        limit = request.body.get("Limit")
        trail = self.audit.trail_of(
            contributor, limit=int(limit) if limit is not None else None
        )
        return {"Records": [r.to_json() for r in trail]}

    @route("POST", "/api/audit/summary", caller="owner", admission="query")
    def _h_audit_summary(self, request: Request, contributor: str) -> dict:
        """Per-consumer aggregate of accesses and samples taken."""
        return {"Summary": self.audit.summary(contributor)}

    @route("POST", "/api/stats", caller="key", admission="scrape")
    def _h_stats(self, request: Request) -> dict:
        stats = self.store.stats
        return {
            "Segments": stats.n_segments,
            "Samples": stats.n_samples,
            "StorageBytes": stats.storage_bytes,
            "QueriesServed": stats.queries_served,
            "SegmentsScanned": stats.segments_scanned,
        }

    @route("POST", "/api/replicate/append", caller="primary", admission="replication")
    def _h_replicate_append(self, request: Request) -> dict:
        """Primary-only: verify and apply one batch of shipped WAL frames."""
        return self.applier.apply_batch(request.body)

    @route("POST", "/api/replicate/link", caller="broker", admission="control")
    def _h_replicate_link(self, request: Request) -> dict:
        """Broker-only, at a primary: ship the WAL to each ``{Host, ApiKey}``
        in ``Replicas`` (the key that replica issued for its primary's
        ships).  Each link is new: its first ship, made here, is a resync."""
        self._require_writable()
        replicas = request.body.get("Replicas")
        if not isinstance(replicas, list) or not all(isinstance(r, dict) and all(
                isinstance(r.get(k), str) for k in ("Host", "ApiKey")) for r in replicas):
            raise BadRequestError("link needs Replicas, a list of {Host, ApiKey} strings")
        for replica in replicas:
            client = HttpClient(self.network, name=self.host, api_key=replica["ApiKey"])
            self.enable_replication().attach(replica["Host"], client)
        return {"CaughtUp": self.replication.pump() if self.replication else 0}

    @route("POST", "/api/health", caller="key", admission="control")
    def _h_health(self, request: Request) -> dict:
        """Liveness, position and linked replicas: the broker's failure
        detector and election read it (per-replica lag is the
        ``replication_lag_frames`` gauge).

        A replicating primary pumps its shipper first: the broker's probe is
        the replication tick, and a dead primary answers no probe.
        """
        if self.replication is not None and self.is_primary:
            self.replication.pump()
        return {
            "Host": self.host,
            "Role": self.role,
            "Epoch": self.epoch,
            "Position": self.position(),
            "FailClosed": sorted(self.fail_closed),
            "Linked": sorted(self.replication.links) if self.replication else [],
        }

    @route("POST", "/api/promote", caller="broker", admission="control")
    def _h_promote(self, request: Request) -> dict:
        """Broker-only: become primary at the given epoch, fenced fail-closed.
        ``Replicated`` (survivors to link): refuse writes until one is."""
        if request.body.get("Replicated"):
            self.enable_replication()
        return self.promote(
            int(request.body.get("Epoch", self.epoch + 1)),
            dict(request.body.get("RuleVersions", {})),
        )

    @route("POST", "/api/demote", caller="broker", admission="control")
    def _h_demote(self, request: Request) -> dict:
        """Broker-only: step down to replica at the given epoch (a fence);
        answers the key its primary ships here with (the broker links it
        there), the ``Position`` an election ranks, and the ``PriorEpoch``
        it followed before, which the promotion's epoch is chosen above."""
        prior = self.epoch
        return {**self.demote(request.body.get("Epoch")), "ApiKey": self.pair_primary(),
                "Position": self.position(), "PriorEpoch": prior}

    # ------------------------------------------------------------------
    # Shard migration (broker-driven; see repro.broker.rebalance)
    # ------------------------------------------------------------------

    @route("POST", "/api/migrate/accept", caller="broker", admission="control")
    def _h_migrate_accept(self, request: Request) -> dict:
        """Broker-only, at the destination: the key ``Source`` installs the
        range of ``Contributors`` here with (:meth:`accept_move`)."""
        contributors, source = request.body.get("Contributors"), request.body.get("Source")
        if not isinstance(contributors, list) or not contributors or not isinstance(source, str):
            raise BadRequestError("accept needs Contributors, a list, and a Source host")
        return {"Host": self.host, "ApiKey": self.accept_move(contributors, source)}

    @route("POST", "/api/migrate/send", caller="broker", admission="replication")
    def _h_migrate_send(self, request: Request) -> dict:
        """Broker-only, at the source: post a contributor range's records to
        ``Dest``, ``{Host, ApiKey}`` with the key the destination accepted.

        The records go store to store (:func:`~repro.storage.records.export_range`);
        the broker hears the range's ``Digest``, which its fence checks, the
        count ``Installed``, and the ``DestDigest`` that fences the
        destination's copy when the move aborts.
        """
        contributors = [str(c) for c in request.body.get("Contributors", [])]
        dest = request.body.get("Dest")
        if not isinstance(dest, dict) or not all(
                isinstance(dest.get(k), str) for k in ("Host", "ApiKey")):
            raise BadRequestError("send needs Dest, a {Host, ApiKey} of strings")
        shipped, digest = records.export_range(self, contributors)
        client = HttpClient(self.network, name=self.host, api_key=dest["ApiKey"])
        url = f"https://{dest['Host']}/api/migrate/install"
        installed = client.post(url, {"Records": shipped})
        return {"Host": self.host, "Digest": digest, "Installed": installed["Installed"],
                "DestDigest": installed["Digest"]}

    @route("POST", "/api/migrate/install", caller="mover", admission="replication", writes=True)
    def _h_migrate_install(self, request: Request, scope: frozenset) -> dict:
        """The accepted move's source only: install its records here.

        A batch naming anyone outside the move is refused whole (403).
        Records flow through the one installer and are re-journaled into
        this store's own WAL; the replication barrier then ships them
        to any replicas, so the migrated range is as durable here as
        natively written data.  ``Digest`` is the range's as this store now
        holds it; ``/api/migrate/complete`` answers the rule versions.
        """
        batch = request.body.get("Records", [])
        owners = {records.record_owner(str(op), data) for op, data in batch}
        if not owners <= scope:
            raise AuthorizationError(f"{sorted(owners - scope)} are not in the accepted move")
        for op, data in batch:
            records.apply(self, str(op), data, journal=True)
        self._wal_commit()
        return {
            "Host": self.host,
            "Installed": len(batch),
            "Digest": records.export_range(self, sorted(scope))[1],
        }

    @route("POST", "/api/migrate/fence", caller="broker", admission="control", writes=True)
    def _h_migrate_fence(self, request: Request) -> dict:
        """Broker-only: stop serving the moving contributors (cutover fence).

        Only while the range is still what was sent: ``Digest`` must be
        the send's, recomputed now, or the fence is a 409
        :class:`ConflictError` that changes nothing — a write that raced
        the copy aborts the move instead of being left behind, so a fence
        that lands leaves the destination holding the range's exact state.
        Each one's role row becomes ``moved``, a credential-less record, so
        every request naming her is a :class:`NotPrimaryError` (the old
        shard self-demotes for exactly the moved range) until a move back
        replaces it.  A move of them into this store ends here: the fence that
        aborts it is the destination's (:meth:`_end_move`).
        """
        contributors = [str(c) for c in request.body.get("Contributors", [])]
        if not contributors:
            raise BadRequestError("fence needs Contributors")
        self._end_move(contributors)
        if records.export_range(self, contributors)[1] != request.body.get("Digest"):
            raise ConflictError(
                f"{sorted(contributors)} changed on {self.host!r} since the copy"
            )
        for contributor in contributors:
            self._assign(records.OP_ROLE, {"Principal": contributor, "Role": records.ROLE_MOVED})
        # Fenced contributors' cached decisions are unreachable (the fence
        # fires before cache lookup); the LRU reclaims their memory.
        return {"Host": self.host, "Fenced": sorted(contributors)}

    @route("POST", "/api/migrate/complete", caller="broker", admission="control", writes=True)
    def _h_migrate_complete(self, request: Request) -> dict:
        """Broker-only: destination-side cutover verification, fail-closed.

        ``RuleVersions`` is the broker's mirror for the moved range; any
        contributor whose installed rules can't be verified against it is
        denied by default (:meth:`_fence_rule_versions` — the promotion
        fence) until their owner re-publishes.  A migration may deny; it
        must never widen access.  The move's key dies (:meth:`_end_move`).
        """
        self._end_move(request.body.get("RuleVersions", {}))
        fenced = self._fence_rule_versions(
            dict(request.body.get("RuleVersions", {}))
        )
        return {
            "Host": self.host,
            "FailClosed": fenced,
            "RuleVersions": {
                str(name): self.rules.version_of(str(name))
                for name in request.body.get("RuleVersions", {})
            },
        }

    @route("POST", "/api/profiles", caller="broker", admission="control")
    def _h_profiles(self, request: Request) -> dict:
        """Broker-only: the one profile pull, for many contributors.

        One request per store instead of one per contributor — the unit
        of :meth:`repro.broker.sync.SyncManager.pull_host`.  Unknown
        and migrated-away contributors are listed in ``Missing`` rather
        than failing the batch; the broker marks them stale and re-resolves.
        """
        names = [str(c) for c in request.body.get("Contributors", [])]
        if not names:
            names = sorted(self.rules.contributors())
        profiles, missing = [], []
        for name in names:
            if self.roles.get(name) == records.ROLE_MOVED or name not in self.rules.contributors():
                missing.append(name)
            else:
                profiles.append(self._profile_json(name))
        return {"Host": self.host, "Profiles": profiles, "Missing": missing}

    @route("POST", "/api/recovery", caller="key", admission="control")
    def _h_recovery(self, request: Request) -> dict:
        """What the last restart found on disk, and who is denied for it."""
        report = self.recovery_report
        return {
            "Host": self.host,
            "Durable": self.durability is not None,
            "FailClosed": sorted(self.fail_closed),
            "Recovery": report.to_json() if report is not None else None,
        }

    @route("GET", "/api/metrics", caller="open", admission="scrape")
    def _h_metrics(self, request: Request) -> dict:
        """Telemetry scrape: the shared registry, labels redaction-checked."""
        return {"Host": self.host, "Metrics": self.network.obs.snapshot()}
