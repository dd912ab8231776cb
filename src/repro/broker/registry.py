"""Broker-side registries: contributors, their stores, and studies.

"The broker stores every data contributor's identity and the IP address of
the associated remote data store" — here the store's network host name —
plus the locally mirrored privacy rules and places that power search.
Studies group consumers (coordinators) so a single Consumer condition like
``'Study': 'stress-study'`` can cover a whole research team.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.exceptions import ConflictError, NotFoundError
from repro.rules.model import Rule
from repro.util.geo import LabeledPlace


@dataclass
class ContributorRecord:
    """Everything the broker knows about one data contributor."""

    name: str
    host: str
    institution: str = "self-hosted"
    rules_version: int = 0
    rules: tuple = ()
    places: dict = field(default_factory=dict)  # label -> LabeledPlace


class ContributorRegistry:
    """Contributor identity -> remote data store, rules mirror, places."""

    def __init__(self) -> None:
        self._records: dict[str, ContributorRecord] = {}

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, name: str) -> bool:
        return name in self._records

    def register(self, name: str, host: str, institution: str = "self-hosted") -> ContributorRecord:
        if name in self._records:
            raise ConflictError(f"contributor already registered: {name!r}")
        record = ContributorRecord(name=name, host=host, institution=institution)
        self._records[name] = record
        return record

    def get(self, name: str) -> ContributorRecord:
        record = self._records.get(name)
        if record is None:
            raise NotFoundError(f"unknown contributor: {name!r}")
        return record

    def all(self) -> list:
        return [self._records[name] for name in sorted(self._records)]

    def names(self) -> list:
        return sorted(self._records)

    def update_profile(
        self,
        name: str,
        *,
        version: int,
        rules: Iterable[Rule],
        places: Iterable[LabeledPlace],
        force: bool = False,
    ) -> bool:
        """Apply a synced profile to the rules mirror; False when it was stale.

        The route (``host``) is not a profile's to move: after
        :meth:`register`, only :class:`~repro.broker.directory.ShardDirectory`
        assigns it, under a routing-epoch bump.

        Version monotonicity makes eager pushes and periodic pulls safely
        composable: whichever arrives later with an older version is a
        no-op.  ``force`` overrides the staleness check — used by restart
        reconciliation, where the store (the authority for its own
        contributors) may legitimately report a *lower* version after a
        fail-closed recovery discarded untrusted rule state; the mirror
        must follow the authority, not shadow lost rules forever.
        """
        record = self.get(name)
        if version < record.rules_version and not force:
            return False
        record.rules_version = version
        record.rules = tuple(rules)
        record.places = {p.label: p for p in places}
        return True

    def on_host(self, host: str) -> list:
        """Records of every contributor whose store is ``host``, sorted."""
        return [r for r in self.all() if r.host == host]


class StudyRegistry:
    """Named studies and the consumers who coordinate them."""

    def __init__(self) -> None:
        self._coordinators: dict[str, set] = {}

    def create(self, study: str, coordinators: Iterable[str] = ()) -> None:
        if study in self._coordinators:
            raise ConflictError(f"study already exists: {study!r}")
        self._coordinators[study] = set(coordinators)

    def studies(self) -> list:
        return sorted(self._coordinators)

    def add_coordinator(self, study: str, consumer: str) -> None:
        self._require(study)
        self._coordinators[study].add(consumer)

    def coordinators_of(self, study: str) -> frozenset:
        self._require(study)
        return frozenset(self._coordinators[study])

    def studies_of_consumer(self, consumer: str) -> frozenset:
        """Study names a consumer coordinates — their extra principals."""
        return frozenset(
            study for study, members in self._coordinators.items() if consumer in members
        )

    def _require(self, study: str) -> None:
        if study not in self._coordinators:
            raise NotFoundError(f"unknown study: {study!r}")
