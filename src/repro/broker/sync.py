"""Rule synchronization between remote data stores and the broker.

Section 5.2: "The broker locally stores all privacy rules of every user on
remote data stores to search through them.  Whenever data contributors
change their privacy rules, remote data stores automatically communicate
with the broker to synchronize the privacy rules."

Two composable modes:

* **eager push** — the store's :class:`~repro.rules.rulestore.RuleStore`
  fires on every mutation and posts the contributor's profile to the
  broker immediately (low staleness, one message per edit).  A push is
  only a hint: one that is lost or refused changes nothing at the store
  and fails no owner's edit;
* **pull** — :meth:`SyncManager.pull_host` asks one store for many
  profiles in one bulk ``/api/profiles`` request.  The periodic round
  (bounded staleness, constant message rate regardless of edit rate),
  restart reconciliation, failover promotion and a split's cutover all
  converge the mirror through it, one request per host.

The C5 ablation compares the two on staleness vs. sync traffic.  Profile
versions make the modes idempotent and safely concurrent.

Cache interaction: sync only ever copies rule state *out of* a store —
the broker's mirror is read-only search state, and nothing here writes
back into a store's :class:`~repro.rules.rulestore.RuleStore`.  Every
path that *does* change store-side rules (owner edits via API or web UI,
and recovery's :meth:`~repro.rules.rulestore.RuleStore.restore`) advances
the store-wide ``rules_version`` epoch, so the release cache
(:mod:`repro.datastore.cache`) never needs a hook in the sync protocol:
any state a push or pull can observe was already keyed to a fresh epoch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.broker.registry import ContributorRegistry
from repro.exceptions import SchemaError, ServiceError, TransportError
from repro.net.client import HttpClient
from repro.obs import NOOP_OBS
from repro.rules.parser import rules_from_json
from repro.util.geo import LabeledPlace


@dataclass
class SyncStats:
    """Instrumentation for the C5 sync-mode ablation and C7 fault runs."""

    pushes_received: int = 0
    pulls_performed: int = 0
    applied: int = 0
    stale_dropped: int = 0
    #: contributors skipped because the broker holds no key for their store.
    skipped_no_key: int = 0
    #: pulls that failed outright (transport or service error).
    pull_failures: int = 0
    #: contributors skipped because their store already failed this round.
    skipped_broken_host: int = 0
    #: previously-stale contributors whose pull succeeded again.
    recovered: int = 0
    #: failed pulls per store host, across the manager's lifetime.
    host_failures: dict = field(default_factory=dict)
    #: wall-clock ms the most recent pull round spent per store host —
    #: the per-host timing breakdown that shows which shard stalls a pull.
    host_pull_ms: dict = field(default_factory=dict)


class SyncManager:
    """Applies contributor profiles to the broker's registry."""

    def __init__(self, registry: ContributorRegistry, *, obs=None):
        self.registry = registry
        self.stats = SyncStats()
        #: contributors whose most recent pull attempt failed; retried (and
        #: on success counted as recovered) by the next pull round.
        self._stale: set[str] = set()
        # Observability (repro.obs.Observability): sync counters mirror
        # SyncStats into the shared registry so /api/metrics sees them.
        self.obs = obs or NOOP_OBS
        m = self.obs.metrics
        self._c_pulls = m.counter("sync_pulls_total")
        self._c_pushes = m.counter("sync_pushes_total")
        self._c_applied = m.counter("sync_profiles_applied_total")
        self._c_stale = m.counter("sync_stale_dropped_total")
        self._c_failures = m.counter("sync_pull_failures_total")
        self._c_skipped = m.counter("sync_skipped_total")
        m.gauge("sync_stale_contributors", callback=lambda: len(self._stale))

    def stale_contributors(self) -> list[str]:
        """Contributors whose broker-side rule mirror may be outdated."""
        return sorted(self._stale)

    def apply_profile(
        self, profile: dict, *, via_pull: bool = False, force: bool = False
    ) -> bool:
        """Apply one profile JSON (from a push or a pull); False if stale.

        Only the rules mirror moves: the profile's ``Host`` and
        ``Institution`` are not the broker's route, which only the shard
        directory changes.
        """
        try:
            name = str(profile["Contributor"])
            version = int(profile["Version"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed sync profile: {profile!r}") from exc
        rules = rules_from_json(profile.get("Rules", []))
        places = [LabeledPlace.from_json(p) for p in profile.get("Places", [])]
        if via_pull:
            self.stats.pulls_performed += 1
        else:
            self.stats.pushes_received += 1
        applied = self.registry.update_profile(
            name, version=version, rules=rules, places=places, force=force
        )
        if applied:
            self.stats.applied += 1
        else:
            self.stats.stale_dropped += 1
        (self._c_pulls if via_pull else self._c_pushes).inc()
        (self._c_applied if applied else self._c_stale).inc()
        return applied

    def pull_all(
        self,
        client: HttpClient,
        store_keys: dict,
        *,
        deadline_ms: int = 10_000,
    ) -> int:
        """Pull every registered contributor; returns profiles applied.

        One :meth:`pull_host` per store host, each under a ``deadline_ms``
        budget, so a slow or dead shard costs the round one bounded
        request instead of stalling it, and every *other* shard still
        pulls.  Contributors whose host the broker holds no key for are
        counted ``skipped_no_key``.
        """
        by_host: dict[str, list] = {}
        for name in self.registry.names():
            by_host.setdefault(self.registry.get(name).host, []).append(name)
        applied = 0
        for host in sorted(by_host):
            names = by_host[host]
            key = store_keys.get(host)
            if key is None:
                self.stats.skipped_no_key += len(names)
                self._c_skipped.inc(len(names))
                continue
            out = self.pull_host(client, host, key, names, deadline_ms=deadline_ms)
            applied += out["applied"]
        return applied

    def reconcile_host(
        self, client: HttpClient, host: str, store_keys: dict, names=None
    ) -> dict:
        """Force-pull ``names`` (default: every contributor routed to
        ``host``) after the store restarted, was promoted, or took a range.

        A store that crashed between acknowledging a rule change and the
        eager push reaching the broker leaves the two sides divergent;
        the store's recovery, a promotion or a migration may also have
        *fail-closed* contributors (bumped version, empty rules).  The
        store is the authority for its own contributors, so the pull is
        applied with ``force=True``: the mirror adopts the store's state
        even when a fail-closed recovery left it at a lower version than
        the mirror — a mirror shadowing rules the store no longer trusts
        would show consumers matches the store will deny.
        """
        key = store_keys.get(host)
        if key is None:
            raise ServiceError(f"no broker key for store host {host!r}", status=404)
        if names is None:
            names = [n for n in self.registry.names() if self.registry.get(n).host == host]
        return self.pull_host(client, host, key, names, force=True)

    def pull_host(
        self,
        client: HttpClient,
        host: str,
        key: str,
        names: list,
        *,
        force: bool = False,
        deadline_ms: int = 10_000,
    ) -> dict:
        """Refresh the mirror of ``names`` from ``host`` in one bulk
        ``/api/profiles`` request — the one way the mirror is pulled.

        ``client`` is bound to the broker's network identity and ``key``
        is the broker's API key at ``host``.  A failed request charges the
        host one failure, counts the rest of ``names`` ``skipped_broken_host``
        and leaves every one of them failed and stale, its mirror as it
        was.  A name the store lists as ``Missing`` (unknown there, or
        migrated away) is failed and stale until the directory repoints
        it.  A previously stale name that pulls again counts as recovered.
        A profile for a name not asked for is ignored.  Per-host wall
        time lands in :attr:`SyncStats.host_pull_ms` and the
        ``sync_host_pull_ms`` histogram.

        Returns ``{"pulled": n, "applied": n, "failed": n}``.
        """
        out = {"pulled": 0, "applied": 0, "failed": 0}
        if not names:
            return out
        started = time.perf_counter()
        try:
            body = client.with_key(key).post(
                f"https://{host}/api/profiles",
                {"Contributors": list(names)},
                deadline_ms=deadline_ms,
            )
        except (TransportError, ServiceError):
            body = None
        elapsed_ms = (time.perf_counter() - started) * 1e3
        self.stats.host_pull_ms[host] = elapsed_ms
        self.obs.metrics.histogram("sync_host_pull_ms", store=host).observe(elapsed_ms)
        if body is None:
            self.stats.pull_failures += 1
            self.stats.host_failures[host] = self.stats.host_failures.get(host, 0) + 1
            self.stats.skipped_broken_host += len(names) - 1
            self._stale.update(names)
            self._c_failures.inc()
            self._c_skipped.inc(len(names) - 1)
            out["failed"] = len(names)
            return out
        asked = set(names)
        for profile in body.get("Profiles", []):
            name = str(profile.get("Contributor", ""))
            if name not in asked:
                continue
            out["pulled"] += 1
            out["applied"] += self.apply_profile(profile, via_pull=True, force=force)
            if name in self._stale:
                self._stale.discard(name)
                self.stats.recovered += 1
        for name in asked.intersection(str(m) for m in body.get("Missing", [])):
            self.stats.pull_failures += 1
            self._stale.add(name)
            self._c_failures.inc()
            out["failed"] += 1
        return out
