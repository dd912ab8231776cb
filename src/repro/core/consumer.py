"""The data consumer's handle: discovery via the broker, data via stores.

Mirrors the Bob walkthrough of Section 6: list contributors, add them to
the account (the broker auto-registers the consumer at each store and
escrows the API keys), search for contributors with suitable privacy
rules, save the resulting list, and download data *directly from each
remote data store* with the escrowed keys — the broker stays out of the
data path.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from repro.broker.search import SearchCriteria
from repro.datastore.query import DataQuery
from repro.exceptions import (
    AuthenticationError,
    AuthorizationError,
    NotFoundError,
    NotPrimaryError,
    ReplicationError,
    TransportError,
)
from repro.net.client import HttpClient
from repro.rules.engine import decode_release


class Consumer:
    """Client-side API for one data consumer."""

    def __init__(self, name: str, broker_host: str, client: HttpClient):
        self.name = name
        self.broker_host = broker_host
        self.client = client
        self._key_ring: dict = {}
        self._hosts: dict = {}  # contributor -> store host (route cache)
        #: Highest broker routing epoch this client has observed.  Purely
        #: informational on the client: correctness comes from the fence
        #: (a stale cached host answers 409 and we re-resolve), not from
        #: comparing epochs — the epoch lets tests and operators assert
        #: convergence ("the client caught up to the cutover's epoch").
        self._route_epoch = 0
        m = client.network.obs.metrics
        self._c_route_hits = m.counter("route_cache_hits_total")
        self._c_route_misses = m.counter("route_cache_misses_total")

    def _broker(self, path: str) -> str:
        return f"https://{self.broker_host}{path}"

    # ------------------------------------------------------------------
    # Discovery and account management (broker)
    # ------------------------------------------------------------------

    def list_contributors(self) -> list:
        body = self.client.post(self._broker("/api/contributors/list"))
        for entry in body.get("Contributors", []):
            self._hosts[entry["Contributor"]] = entry["Host"]
        return body.get("Contributors", [])

    def add_contributors(self, names: Iterable[str]) -> dict:
        """Add contributors to this account (auto-registration + escrow)."""
        body = self.client.post(
            self._broker("/api/contributors/add"), {"Contributors": list(names)}
        )
        added = body.get("Added", {})
        self._hosts.update(added)
        self.refresh_keys()
        return added

    def refresh_keys(self) -> dict:
        body = self.client.post(self._broker("/api/keys"))
        self._key_ring = dict(body.get("Keys", {}))
        return dict(self._key_ring)

    def search(self, criteria: Union[SearchCriteria, dict]) -> list:
        """Contributor names whose rules satisfy the criteria."""
        if isinstance(criteria, SearchCriteria):
            criteria = criteria.to_json()
        body = self.client.post(self._broker("/api/search"), {"Criteria": dict(criteria)})
        matches = body.get("Matches", [])
        for entry in matches:
            self._hosts[entry["Contributor"]] = entry["Host"]
        return [entry["Contributor"] for entry in matches]

    def save_list(self, name: str, contributors: Iterable[str]) -> None:
        self.client.post(
            self._broker("/api/lists/save"),
            {"Name": name, "Contributors": list(contributors)},
        )

    def get_list(self, name: str) -> list:
        body = self.client.post(self._broker("/api/lists/get"), {"Name": name})
        return list(body.get("Contributors", []))

    def create_study(self, study: str) -> None:
        self.client.post(self._broker("/api/studies/create"), {"Study": study})

    def join_study(self, study: str) -> None:
        self.client.post(self._broker("/api/studies/join"), {"Study": study})

    # ------------------------------------------------------------------
    # Data access (direct to stores)
    # ------------------------------------------------------------------

    def resolve(self, contributor: str, *, force: bool = False):
        """The contributor's store host: route-cache hit or one lookup.

        A hit costs the broker nothing — which is the point of the
        directory design: at fleet scale the broker answers one ``/api/
        route`` per (consumer, contributor) pair per topology change, not
        one per query.  ``force=True`` drops the cached route first (the
        fenced-retry path).  Returns ``None`` for unknown contributors.
        """
        if force:
            self._hosts.pop(contributor, None)
        host = self._hosts.get(contributor)
        if host is not None:
            self._c_route_hits.inc()
            return host
        try:
            body = self.client.post(
                self._broker("/api/route"), {"Contributor": contributor}
            )
        except NotFoundError:
            return None
        host = str(body["Host"])
        self._hosts[contributor] = host
        self._route_epoch = max(
            self._route_epoch, int(body.get("RoutingEpoch", 0))
        )
        self._c_route_misses.inc()
        return host

    def _store_client(self, contributor: str) -> tuple:
        host = self.resolve(contributor)
        key = self._key_ring.get(host) if host else None
        if key is None:
            self.refresh_keys()
            key = self._key_ring.get(host) if host else None
        return host, key

    def _post_store(self, contributor: str, path: str, body: dict) -> dict:
        """POST to a contributor's store, re-resolving once on failover.

        A store that answers :class:`~repro.exceptions.NotPrimaryError`
        was demoted — or the contributor migrated to another shard and
        the old shard fenced the request.  An unreachable host may be a
        dead primary mid-failover, and one that answers
        :class:`~repro.exceptions.ReplicationError` a primary no replica
        follows any more.  One that answers
        :class:`~repro.exceptions.AuthenticationError` re-keyed this
        consumer (a restart or a re-enrollment).  The cure is the same:
        forget the cached route, re-resolve at the broker directory,
        refresh the key ring, and retry exactly once against the new
        host or key.  One fenced retry, then the client has converged.
        """
        host, key = self._store_client(contributor)
        if host is None or key is None:
            raise AuthorizationError(
                f"{self.name!r} has no access to {contributor!r}; "
                "call add_contributors first"
            )
        try:
            return self.client.with_key(key).post(f"https://{host}{path}", dict(body))
        except (NotPrimaryError, ReplicationError, AuthenticationError, TransportError):
            self.resolve(contributor, force=True)
            self.refresh_keys()
            new_host, new_key = self._store_client(contributor)
            if new_host is None or new_key is None or (new_host, new_key) == (host, key):
                raise  # nothing changed: the original failure stands
            return self.client.with_key(new_key).post(
                f"https://{new_host}{path}", dict(body)
            )

    def fetch(
        self, contributor: str, query: Optional[DataQuery] = None
    ) -> list:
        """Download a contributor's data directly from their store.

        Returns :class:`ReleasedSegment` items — whatever the owner's
        privacy rules let through for this consumer.
        """
        body = self._post_store(
            contributor,
            "/api/query",
            {"Contributor": contributor, "Query": (query or DataQuery()).to_json()},
        )
        return decode_release(body.get("Released"))

    def fetch_aggregate(
        self,
        contributor: str,
        spec,
        query: Optional[DataQuery] = None,
    ) -> list:
        """Windowed aggregates over whatever the rules release.

        ``spec`` is an :class:`~repro.datastore.aggregate.AggregateSpec`;
        returns :class:`~repro.datastore.aggregate.AggregateRow` items.
        """
        from repro.datastore.aggregate import AggregateRow

        body = self._post_store(
            contributor,
            "/api/aggregate",
            {
                "Contributor": contributor,
                "Query": (query or DataQuery()).to_json(),
                "Aggregate": spec.to_json(),
            },
        )
        return [AggregateRow.from_json(r) for r in body.get("Rows", [])]

    def fetch_via_broker(
        self, contributor: str, query: Optional[DataQuery] = None
    ) -> list:
        """The web-UI path: data proxied through the broker (C2 contrast)."""
        body = self.client.post(
            self._broker("/api/data"),
            {"Contributor": contributor, "Query": (query or DataQuery()).to_json()},
        )
        return decode_release(body.get("Released"))
