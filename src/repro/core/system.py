"""System assembly: broker + remote data stores on one simulated network."""

from __future__ import annotations

from typing import Optional

from repro.core.consumer import Consumer
from repro.core.contributor import Contributor
from repro.datastore.optimizer import MergePolicy
from repro.exceptions import ConflictError, StorageError
from repro.net.client import HttpClient
from repro.net.faults import FaultPlan, SimClock
from repro.net.resilience import RetryPolicy
from repro.net.transport import Network
from repro.obs import Observability
from repro.server.broker_service import STORE_PRINCIPAL_PREFIX, BrokerService
from repro.server.datastore_service import DataStoreService


def pair(broker: BrokerService, store: DataStoreService, *, eager_sync: bool = True) -> None:
    """Exchange keys between ``broker`` and ``store``, at install or restart.

    The operator's one out-of-band step: the broker is given the store's
    host and the key the store issued it, and commands the store over the
    network from then on; the store is given the broker's host and the
    key the broker issued it, and pushes rule changes there.  With
    ``eager_sync=False`` the store never pushes, is issued no push key,
    and the broker relies on pulls — the lazy mode of the C5 ablation.
    """
    push_key = broker.keys.issue(f"{STORE_PRINCIPAL_PREFIX}{store.host}") if eager_sync else ""
    key = store.pair_broker(broker.host if eager_sync else "", push_key)
    broker.attach_store(store.host, key)


class SensorSafeSystem:
    """A complete in-process SensorSafe deployment (paper Fig. 1).

    Typical use::

        system = SensorSafeSystem()
        alice = system.add_contributor("alice")          # personal store
        lab = system.create_store("lab-store", institution="UCLA")
        bob_subj = system.add_contributor("subject-1", store=lab)
        bob = system.add_consumer("bob")
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        eager_sync: bool = True,
        fault_plan: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        telemetry: bool = True,
        overload: str = "observe",
    ):
        self.seed = seed
        self.eager_sync = eager_sync
        #: admission-control mode for every host this system creates:
        #: ``"observe"`` (account, never shed — the default, so
        #: functional tests see no behavior change), or
        #: ``"enforce"`` (shed with typed 503/504s under overload).
        self.overload = overload
        self.clock = SimClock()
        #: ``telemetry=False`` builds the deployment on a disabled hub:
        #: every instrument is inert (traffic counters included, so
        #: ``traffic()`` reads zeros), no span finishes, no SLO tracking,
        #: no fleet scrapes.  Benchmark C15 uses this as the baseline to
        #: price full-fleet telemetry.
        obs = None if telemetry else Observability(clock=self.clock, enabled=False)
        self.network = Network(clock=self.clock, fault_plan=fault_plan, obs=obs)
        #: deployment-wide observability hub (metrics registry + tracer);
        #: every host, client, and phone on this network shares it.
        self.obs = self.network.obs
        #: default retry policy handed to every client this system creates;
        #: on a fault-free network it never fires, so resilience is free.
        self.retry = retry if retry is not None else RetryPolicy()
        self.broker = BrokerService(self.network, "broker", seed=seed, overload=overload)
        self.stores: dict[str, DataStoreService] = {}
        self.contributors: dict[str, Contributor] = {}
        self.consumers: dict[str, Consumer] = {}

    def install_faults(self, plan: Optional[FaultPlan]) -> None:
        """Install (or remove) a fault-injection plan on the network."""
        self.network.install_faults(plan)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def create_store(
        self,
        host: str,
        *,
        institution: str = "self-hosted",
        merge_policy: Optional[MergePolicy] = None,
        directory: Optional[str] = None,
        enforce_closure: bool = True,
        durable: bool = False,
        wal_sync: str = "group",
    ) -> DataStoreService:
        """Create a remote data store and pair it with the broker.

        A store can be a contributor's personal machine or an
        institutional server hosting many study participants (the IRB
        topology of Section 1).
        """
        if host in self.stores:
            raise ConflictError(f"store host already exists: {host!r}")
        store = DataStoreService(
            host,
            self.network,
            institution=institution,
            merge_policy=merge_policy,
            directory=directory,
            seed=self.seed,
            enforce_closure=enforce_closure,
            durable=durable,
            wal_sync=wal_sync,
            overload=self.overload,
        )
        self.stores[host] = store
        pair(self.broker, store, eager_sync=self.eager_sync)
        return store

    def create_shard_fleet(
        self,
        n_shards: int,
        *,
        prefix: str = "shard",
        institution: str = "self-hosted",
        directory: Optional[str] = None,
        durable: bool = False,
        wal_sync: str = "group",
    ) -> list:
        """Create N store shards and put them on the broker's hash ring.

        Once a fleet exists, :meth:`add_contributor` places new
        contributors on shards by consistent hashing instead of creating
        one personal store per contributor — the smart-city topology the
        C14 benchmark measures.  With ``durable=True`` each shard gets a
        WAL under ``directory/<host>``; durable or not, a shard migrates
        the same way (:mod:`repro.broker.rebalance`).
        Returns the shard services, hosts ``{prefix}-1 … -N``.
        """
        import os

        shards = []
        for i in range(1, max(1, int(n_shards)) + 1):
            host = f"{prefix}-{i}"
            shards.append(
                self.create_store(
                    host,
                    institution=institution,
                    directory=(
                        os.path.join(directory, host) if directory else None
                    ),
                    durable=durable,
                    wal_sync=wal_sync,
                )
            )
            self.broker.directory.add_shard(host)
        return shards

    def split_shard(
        self,
        source_host: str,
        dest_host: str,
        *,
        institution: str = "self-hosted",
        directory: Optional[str] = None,
        durable: bool = False,
        wal_sync: str = "group",
    ) -> dict:
        """Split one shard online: create/ring-add ``dest_host``, migrate.

        The destination joins the ring first (new registrations land
        there immediately); the migration then moves exactly the
        contributors whose ring placement is the new shard — export,
        install, digest-checked fence, fail-closed verify, cutover (see
        :mod:`repro.broker.rebalance`).  Returns the migration report.
        """
        import os

        if dest_host not in self.stores:
            self.create_store(
                dest_host,
                institution=institution,
                directory=(
                    os.path.join(directory, dest_host) if directory else None
                ),
                durable=durable,
                wal_sync=wal_sync,
            )
        return self.broker.rebalancer.split_shard(source_host, dest_host)

    def create_replicated_store(
        self,
        host: str,
        *,
        directory: str,
        n_replicas: int = 1,
        institution: str = "self-hosted",
        mode: str = "semi-sync",
        wal_sync: str = "group",
        storage_faults=None,
        merge_policy: Optional[MergePolicy] = None,
    ) -> DataStoreService:
        """Create a durable primary plus WAL-shipping replicas.

        Members live in per-host subdirectories of ``directory``; replica
        hosts are ``{host}-r1 … -rN``.  Every member is paired
        (:func:`pair`); the broker promotes the primary, links the
        replicas into it over the network and owns failure detection —
        :meth:`BrokerService.failover` heartbeats promote the
        most-caught-up replica when the primary dies.  Returns the
        primary service; the set is ``system.broker.failover.sets[host]``.

        A write is acknowledged once a replica holds it; ``mode`` names that
        rule, ``"semi-sync"``, and takes no other value.
        """
        import os

        if mode != "semi-sync":
            raise StorageError(f"unknown replication mode {mode!r}; the one mode is 'semi-sync'")
        if host in self.stores:
            raise ConflictError(f"store host already exists: {host!r}")
        members = [host] + [f"{host}-r{i}" for i in range(1, max(0, int(n_replicas)) + 1)]
        for member in members:
            store = DataStoreService(
                member,
                self.network,
                institution=institution,
                merge_policy=merge_policy,
                directory=os.path.join(directory, member),
                seed=self.seed,
                durable=True,
                wal_sync=wal_sync,
                storage_faults=storage_faults if member == host else None,
                overload=self.overload,
            )
            self.stores[member] = store
            pair(self.broker, store, eager_sync=self.eager_sync)
        self.broker.failover.register_set(host, members[1:], name=host)
        return self.stores[host]

    def reconcile(self, store: DataStoreService) -> dict:
        """Bring back a store restarted on its directory: it replaces the
        old one, is re-paired (:func:`pair`), and the broker reconciles it
        (:meth:`BrokerService.reconcile_store`)."""
        self.stores[store.host] = store
        pair(self.broker, store, eager_sync=self.eager_sync)
        return self.broker.reconcile_store(store.host)

    def add_contributor(
        self,
        name: str,
        *,
        store: Optional[DataStoreService] = None,
        password: str = "pw",
    ) -> Contributor:
        """Register a data contributor; creates a personal store if needed.

        Registration at the store automatically registers the contributor
        on the broker too, as the paper prescribes.  When a shard fleet
        exists (:meth:`create_shard_fleet`) and no explicit store is
        given, the contributor is *placed* on a shard by consistent
        hashing instead of getting a personal store.
        """
        if name in self.contributors:
            raise ConflictError(f"contributor already exists: {name!r}")
        if store is None:
            placed = self.broker.directory.place(name)
            store = self.stores.get(placed) if placed else None
        if store is None:
            store = self.create_store(f"{name}-store")
        api_key = store.register_contributor(name, password)
        self.broker.register_contributor(name, store.host, store.institution)
        client = HttpClient(
            self.network, name=f"{name}-phone", api_key=api_key, retry=self.retry
        )
        contributor = Contributor(name, store.host, client)
        self.contributors[name] = contributor
        return contributor

    def repoint_contributor(self, name: str, password: str = "pw") -> Contributor:
        """Re-home a contributor's phone after a broker-driven failover.

        Consumers re-resolve transparently (the broker escrows their
        keys), but a contributor authenticates with a key issued by their
        own store — which just died.  The recovery step the runbook
        prescribes: ask the broker's directory for the current host and,
        if it moved, re-key there with the owner's password, whose hash
        rode the role record there by shipping or migration (a wrong one
        is a 401).  Keys are never replicated; rules and data are untouched.
        """
        from repro.auth.accounts import ROLE_CONTRIBUTOR

        contributor = self.contributors[name]
        record = self.broker.registry.get(name)
        if record.host == contributor.store_host:
            return contributor  # directory agrees: nothing to do
        body = HttpClient(self.network, name=f"{name}-phone").post(
            f"https://{record.host}/api/register",
            {"Username": name, "Role": ROLE_CONTRIBUTOR, "Password": password},
        )
        contributor.store_host = record.host
        contributor.client = HttpClient(
            self.network,
            name=f"{name}-phone",
            api_key=str(body["ApiKey"]),
            retry=self.retry,
        )
        return contributor

    def add_consumer(self, name: str, password: str = "pw") -> Consumer:
        """Register a data consumer at the broker."""
        if name in self.consumers:
            raise ConflictError(f"consumer already exists: {name!r}")
        api_key = self.broker.register_consumer(name, password)
        client = HttpClient(
            self.network, name=f"{name}-app", api_key=api_key, retry=self.retry
        )
        consumer = Consumer(name, self.broker.host, client)
        self.consumers[name] = consumer
        return consumer

    # ------------------------------------------------------------------
    # Introspection used by benchmarks
    # ------------------------------------------------------------------

    def traffic(self) -> dict:
        """Per-host traffic snapshot: {host: HostMetrics}."""
        return dict(self.network.metrics)

    def pull_sync(self) -> int:
        """Trigger one broker pull-sync round (lazy mode)."""
        return self.broker.pull_profiles()
