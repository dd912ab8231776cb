"""The broker service (paper Fig. 2, right box).

Exposes the broker's HTTP API:

* consumer account registration (the password a web login checks);
* contributor listing and *adding contributors to a consumer's account*,
  which enrolls the consumer at each contributor's remote data store,
  obtains an API key there, and escrows it (Section 5.4);
* contributor search over synced privacy rules;
* the rule-sync endpoint remote data stores push profiles to;
* study management (group/study names usable in Consumer conditions);
* a convenience data proxy for the broker's web UI ("they can also access
  a contributor's data through the web user interface") — note that
  programmatic consumers bypass this proxy and talk to stores directly,
  which is why the broker never becomes a data-path bottleneck.
"""

from __future__ import annotations

import time

from repro.auth.accounts import AccountRegistry, ROLE_CONSUMER
from repro.auth.apikeys import ApiKeyRegistry, KeyEscrow
from repro.broker.directory import ShardDirectory
from repro.broker.failover import FailoverManager
from repro.broker.rebalance import ShardRebalancer
from repro.broker.registry import ContributorRegistry, StudyRegistry
from repro.broker.search import ContributorSearch, SearchCriteria
from repro.broker.sync import SyncManager
from repro.exceptions import (
    AuthorizationError,
    BadRequestError,
    ConflictError,
    NotFoundError,
    SensorSafeError,
    ServiceError,
)
from repro.net.client import HttpClient
from repro.net.http import Request, Router
from repro.net.overload import AdmissionController
from repro.net.resilience import RetryPolicy
from repro.net.transport import Network
from repro.obs.fleet import FleetAggregator
from repro.server.routes import mount, route
from repro.util.idgen import DeterministicRng

STORE_PRINCIPAL_PREFIX = "store:"


class BrokerService:
    """The broker mounted on the simulated network."""

    def __init__(
        self,
        network: Network,
        host: str = "broker",
        *,
        seed: int = 0,
        overload: str = "observe",
    ):
        self.host = host
        self.network = network
        rng = DeterministicRng(seed).fork(f"broker:{host}")
        self.registry = ContributorRegistry()
        self.studies = StudyRegistry()
        #: The versioned routing table (PR 10): consistent-hash placement
        #: plus a monotonic routing_epoch that every route change bumps,
        #: so stale client route caches are unreachable by construction.
        self.directory = ShardDirectory(self.registry, obs=network.obs)
        self.sync = SyncManager(self.registry, obs=network.obs)
        self.search = ContributorSearch(self.registry, membership=self._membership)
        self.keys = ApiKeyRegistry(f"secret:{host}", rng.fork("keys"))
        self.accounts = AccountRegistry(rng.fork("accounts"))
        self.escrow = KeyEscrow()
        # Pull-sync and auto-registration calls ride the same retry policy
        # the phones use; on a fault-free network it never fires.
        self.client = HttpClient(network, name=host, retry=RetryPolicy())
        #: broker's own API keys at each store host (for profile pulls).
        self.store_keys: dict[str, str] = {}
        #: replicated-store failure detection and promotion (PR 6).
        self.failover = FailoverManager(self)
        #: online shard split/migration coordinator (PR 10).
        self.rebalancer = ShardRebalancer(self)
        #: fleet-wide telemetry aggregation (PR 8): scrapes every paired
        #: host's /api/metrics into versioned, tombstone-aware snapshots.
        self.fleet = FleetAggregator(self)
        #: per-consumer saved contributor lists, keyed by list name.
        self.saved_lists: dict[str, dict] = {}
        self.router = Router()
        #: Overload control (PR 9): same contract as the stores' —
        #: "observe" accounts without shedding, "enforce" sheds typed
        #: 503/504s, by the class each declaration carries.
        self.admission = AdmissionController(
            host, network, mode=overload, classes=mount(self, self.router, {})
        )
        self.admission.attach(self.router)
        network.register_host(host, self.router)

    # ------------------------------------------------------------------
    # Data stores, by host name
    # ------------------------------------------------------------------

    def attach_store(self, host: str, key: str) -> None:
        """Record ``key``, which the store at ``host`` issued this broker.

        The broker's half of the operator's key exchange
        (:func:`repro.core.system.pair`): it reaches a store only over the
        network, with this key (probes, pulls, enrollment, commands).
        """
        self.store_keys[host] = key

    def register_contributor(self, name: str, host: str, institution: str = "self-hosted"):
        """Record a contributor and their store (called at store signup).

        The paper: "When the data contributors are first registered on
        their data store, they are automatically registered on the broker,
        too."
        """
        return self.registry.register(name, host, institution)

    def pull_profiles(self, *, deadline_ms: int = 10_000) -> int:
        """Periodic-pull sync across every known store.

        ``deadline_ms`` bounds each shard's bulk pull so one slow host
        costs the round a bounded wait, not a stall (see
        :meth:`SyncManager.pull_all`).
        """
        return self.sync.pull_all(
            self.client, self.store_keys, deadline_ms=deadline_ms
        )

    def reconcile_store(self, host: str) -> dict:
        """Converge with a store that restarted (crash recovery).

        A restart rotates the store's keys, so the operator re-pairs it
        first (:func:`repro.core.system.pair`).  Then every contributor on
        that host is re-pulled, in one bulk request: rule versions are
        monotonic, so the newer side — including a recovery's fail-closed
        deny state, which carries a bumped version — wins on both ends.
        Then every consumer escrowed there is re-enrolled for a fresh key;
        each name a failed pull carried and each failed enrollment counts
        in ``failed``.  A replica set's member rejoins it instead
        (:meth:`FailoverManager.rejoin`), counting nothing: it serves only
        if the set's election promotes it, which pulls and enrolls there.
        """
        for name, group in self.failover.sets.items():
            if host in group.members() or host in group.demoted:
                self.failover.rejoin(name, host)
                return {"pulled": 0, "applied": 0, "failed": 0}
        out = self.sync.reconcile_host(self.client, host, self.store_keys)
        out["failed"] += self.enroll_escrowed(host, host)[1]
        return out

    # ------------------------------------------------------------------
    # Consumer-side helpers
    # ------------------------------------------------------------------

    def register_consumer(self, name: str, password: str = "pw") -> str:
        self.accounts.register(name, password, ROLE_CONSUMER)
        return self.keys.issue(name)

    def check_password(self, name: str, password: str) -> None:
        """401 unless ``password`` is ``name``'s broker account password."""
        self.accounts.check_password(name, password)

    def _membership(self, consumer: str) -> frozenset:
        return frozenset({consumer}) | self.studies.studies_of_consumer(consumer)

    def enroll(self, consumer: str, host: str, joining: str = "") -> None:
        """The one way a consumer comes to exist at a store.

        ``/api/enroll`` writes its role record with its groups (plus the
        study it is ``joining``, which the broker records only afterwards);
        the key it answers is escrowed only once the request has succeeded.
        """
        groups = set(self._membership(consumer) - {consumer})
        if joining:
            groups.add(joining)
        body = self.client.with_key(self.store_keys.get(host)).post(
            f"https://{host}/api/enroll",
            {"Consumer": consumer, "Groups": sorted(groups)},
        )
        self.escrow.store_key(consumer, host, str(body["ApiKey"]))

    def enroll_escrowed(self, source: str, host: str) -> tuple:
        """Enroll at ``host`` every consumer escrowed at ``source``, skipping
        any the store refuses or is unreachable for: ``(enrolled, failed)``."""
        enrolled = failed = 0
        for consumer in self.escrow.consumers_for(source):
            try:
                self.enroll(consumer, host)
                enrolled += 1
            except SensorSafeError:
                failed += 1
        return enrolled, failed

    def _enroll_joining(self, consumer: str, study: str) -> None:
        """Enroll ``consumer`` in ``study`` at every store where it holds a
        key and a contributor is routed, before the broker records it.

        A store may so hold a group the broker lacks, never the reverse
        (which would lift a group deny there).  Every store is tried; if
        any failed the request fails 503, nothing is recorded, and the
        client's retry finishes it.  A demoted primary serves no one and
        takes the row from its primary's log if it rejoins.
        """
        routed = {record.host for record in self.registry.all()}
        failed = []
        for host in sorted(self.escrow.ring_of(consumer)):
            if host not in routed:
                continue
            try:
                self.enroll(consumer, host, joining=study)
            except SensorSafeError:
                failed.append(host)
        if failed:
            raise ServiceError(
                f"{consumer!r} could not be enrolled in {study!r} at {failed}",
                status=503,
            )

    def add_contributors_to_account(self, consumer: str, contributors) -> dict:
        """Enroll ``consumer`` at each contributor's store it has no key for.

        Returns ``{contributor: store host}``; the keys go into escrow.
        """
        out = {}
        for name in contributors:
            host = self.registry.get(name).host
            if self.escrow.key_for(consumer, host) is None:
                self.enroll(consumer, host)
            out[name] = host
        return out

    # ------------------------------------------------------------------
    # Auth plumbing
    # ------------------------------------------------------------------

    def _authenticate(self, request: Request) -> str:
        return self.keys.authenticate(request.api_key)

    def _caller_key(self, request: Request) -> None:
        """Any valid key."""
        self._authenticate(request)

    def _caller_consumer(self, request: Request) -> tuple:
        """A registered data consumer's key; the handler receives its name."""
        principal = self._authenticate(request)
        account = self.accounts.get(principal)
        if account is None or account.role != ROLE_CONSUMER:
            raise AuthorizationError(f"{principal!r} is not a registered data consumer")
        return (principal,)

    def _caller_store(self, request: Request) -> tuple:
        """A paired data store's key; the handler receives its host."""
        principal = self._authenticate(request)
        if not principal.startswith(STORE_PRINCIPAL_PREFIX):
            raise AuthorizationError("endpoint restricted to paired data stores")
        return (principal[len(STORE_PRINCIPAL_PREFIX) :],)

    # ------------------------------------------------------------------
    # Routes (declared with ``@route``, as a store's are)
    # ------------------------------------------------------------------

    @route("GET", "/api/metrics", caller="open", admission="scrape")
    def _h_metrics(self, request: Request) -> dict:
        """Telemetry scrape: the shared registry, labels redaction-checked."""
        return {"Host": self.host, "Metrics": self.network.obs.snapshot()}

    @route("GET", "/api/fleet/metrics", caller="open", admission="scrape")
    def _h_fleet_metrics(self, request: Request) -> dict:
        """Fleet telemetry: scrape every host now, serve the fresh snapshot."""
        return self.fleet.scrape()

    @route("POST", "/api/register_consumer", caller="open", admission="control")
    def _h_register_consumer(self, request: Request) -> dict:
        name = str(request.body.get("Username", ""))
        if not name:
            raise BadRequestError("registration needs a Username")
        key = self.register_consumer(name, str(request.body.get("Password", "pw")))
        return {"ApiKey": key}

    @route("POST", "/api/contributors/list", caller="key", admission="control")
    def _h_contributors_list(self, request: Request) -> dict:
        return {
            "Contributors": [
                {
                    "Contributor": r.name,
                    "Host": r.host,
                    "Institution": r.institution,
                    "RulesVersion": r.rules_version,
                }
                for r in self.registry.all()
            ]
        }

    @route("POST", "/api/contributors/add", caller="consumer", admission="control")
    def _h_contributors_add(self, request: Request, consumer: str) -> dict:
        contributors = [str(c) for c in request.body.get("Contributors", [])]
        added = self.add_contributors_to_account(consumer, contributors)
        return {"Added": added}

    @route("POST", "/api/keys", caller="consumer", admission="control")
    def _h_keys(self, request: Request, consumer: str) -> dict:
        """The consumer's escrowed key ring: {store host: API key}."""
        return {"Keys": self.escrow.ring_of(consumer)}

    @route("POST", "/api/search", caller="consumer", admission="query")
    def _h_search(self, request: Request, consumer: str) -> dict:
        criteria_json = dict(request.body.get("Criteria", {}))
        criteria_json.setdefault("Consumer", consumer)
        if criteria_json["Consumer"] != consumer:
            raise AuthorizationError("cannot search on behalf of another consumer")
        criteria = SearchCriteria.from_json(criteria_json)
        obs = self.network.obs
        started = time.perf_counter()
        with obs.tracer.start_span("broker.search", consumer=consumer) as span:
            matches, shard_stats = self.search.search_sharded(criteria)
            span.set_attributes(
                matches=len(matches), shards=len(shard_stats)
            )
        obs.metrics.histogram("broker_search_us").observe(
            (time.perf_counter() - started) * 1e6
        )
        obs.metrics.counter("broker_searches_total").inc()
        errors = sum(s["Errors"] for s in shard_stats.values())
        if errors:
            obs.metrics.counter("search_shard_errors_total").inc(errors)
        return {
            "Matches": [{"Contributor": r.name, "Host": r.host} for r in matches],
            "RoutingEpoch": self.directory.routing_epoch,
            "Shards": shard_stats,
        }

    @route("POST", "/api/route", caller="key", admission="control")
    def _h_route(self, request: Request) -> dict:
        """Directory lookup: authoritative (host, epoch) for one contributor.

        The client caches the pair and talks to the store directly; when
        a route goes stale the old shard answers 409 and the client
        re-resolves here — one bounded retry, never a silent wrong read.
        """
        contributor = str(request.body.get("Contributor", ""))
        if not contributor:
            raise BadRequestError("route lookup needs a Contributor")
        host, epoch = self.directory.route(contributor)
        return {"Contributor": contributor, "Host": host, "RoutingEpoch": epoch}

    @route("POST", "/api/shards/status", caller="key", admission="control")
    def _h_shards_status(self, request: Request) -> dict:
        """Shard topology + rebalance history, for operators and the CLI."""
        return {
            "Directory": self.directory.status(),
            "Rebalancer": self.rebalancer.status(),
        }

    @route("POST", "/api/lists/save", caller="consumer", admission="control")
    def _h_lists_save(self, request: Request, consumer: str) -> dict:
        list_name = str(request.body.get("Name", "default"))
        members = [str(c) for c in request.body.get("Contributors", [])]
        for name in members:
            self.registry.get(name)  # 404 on unknown contributors
        self.saved_lists.setdefault(consumer, {})[list_name] = members
        return {"Name": list_name, "Count": len(members)}

    @route("POST", "/api/lists/get", caller="consumer", admission="control")
    def _h_lists_get(self, request: Request, consumer: str) -> dict:
        list_name = str(request.body.get("Name", "default"))
        lists = self.saved_lists.get(consumer, {})
        if list_name not in lists:
            raise NotFoundError(f"no saved list {list_name!r}")
        return {"Name": list_name, "Contributors": lists[list_name]}

    @route("POST", "/api/studies/create", caller="consumer", admission="control")
    def _h_studies_create(self, request: Request, consumer: str) -> dict:
        study = str(request.body.get("Study", ""))
        if not study:
            raise BadRequestError("study creation needs a Study name")
        if study in self.studies.studies():
            raise ConflictError(f"study already exists: {study!r}")
        self._enroll_joining(consumer, study)
        self.studies.create(study, coordinators=[consumer])
        return {"Study": study, "Coordinators": [consumer]}

    @route("POST", "/api/studies/join", caller="consumer", admission="control")
    def _h_studies_join(self, request: Request, consumer: str) -> dict:
        study = str(request.body.get("Study", ""))
        self.studies.coordinators_of(study)  # 404 before any store hears of it
        self._enroll_joining(consumer, study)
        self.studies.add_coordinator(study, consumer)
        return {"Study": study, "Joined": consumer}

    @route("POST", "/api/replicas/status", caller="key", admission="control")
    def _h_replicas_status(self, request: Request) -> dict:
        """Replica-set topology: who is primary, at which epoch, who lags."""
        return {"Sets": self.failover.status(), "Events": list(self.failover.events)}

    @route("POST", "/api/sync", caller="store", admission="replication")
    def _h_sync(self, request: Request, store_host: str) -> dict:
        """Rule-sync push endpoint for remote data stores.

        A store syncs only contributors the directory routes to it: a push
        writes the rules mirror, never the route, and never registers a
        name (an unknown one is a 404 with nothing recorded).  Names come
        only from store signup (:meth:`register_contributor`).
        """
        profile = dict(request.body.get("Profile", {}))
        if profile.get("Host") != store_host:
            raise AuthorizationError("stores may only sync their own contributors")
        name = str(profile.get("Contributor", ""))
        if self.registry.get(name).host != store_host:
            raise AuthorizationError(
                f"{name!r} is routed to another store, not {store_host!r}"
            )
        applied = self.sync.apply_profile(profile)
        return {"Applied": applied}

    @route("POST", "/api/data", caller="consumer", admission="query")
    def _h_data_proxy(self, request: Request, consumer: str) -> dict:
        """Web-UI convenience: fetch a contributor's data via the broker.

        The broker forwards the query to the store using the consumer's
        escrowed key.  Payload transits the broker — which is exactly why
        programmatic consumers use the direct path instead (benchmark C2
        contrasts the two).
        """
        contributor = str(request.body.get("Contributor", ""))
        record = self.registry.get(contributor)
        key = self.escrow.key_for(consumer, record.host)
        if key is None:
            raise AuthorizationError(
                f"{consumer!r} has not added {contributor!r} to their account"
            )
        return self.client.with_key(key).post(
            f"https://{record.host}/api/query",
            {"Contributor": contributor, "Query": dict(request.body.get("Query", {}))},
        )
