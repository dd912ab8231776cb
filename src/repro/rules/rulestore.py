"""Per-contributor rule storage with versioning.

Each remote data store keeps its contributors' privacy rules; "whenever
data contributors change their privacy rules, remote data stores
automatically communicate with the broker to synchronize" (Section 5.2).
The :class:`RuleStore` assigns a monotonically increasing version to every
mutation, and the sync protocol (:mod:`repro.broker.sync`) ships rule sets
whose version is newer than the broker's copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.exceptions import MissingRecordError, RuleError
from repro.rules.model import Rule
from repro.rules.parser import rules_from_json, rules_to_json


@dataclass
class RuleSetSnapshot:
    """A versioned copy of one contributor's rules (the sync unit)."""

    contributor: str
    version: int
    rules: tuple

    def to_json(self) -> dict:
        """JSON wire form of the snapshot (the sync payload)."""
        return {
            "Contributor": self.contributor,
            "Version": self.version,
            "Rules": rules_to_json(self.rules),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RuleSetSnapshot":
        """Parse a snapshot from its JSON wire form."""
        return cls(
            contributor=str(obj["Contributor"]),
            version=int(obj["Version"]),
            rules=tuple(rules_from_json(obj.get("Rules", []))),
        )


class RuleStore:
    """Rules for many contributors, with change notification hooks."""

    def __init__(self) -> None:
        self._rules: dict[str, list] = {}
        self._versions: dict[str, int] = {}
        self._listeners: list[Callable[[RuleSetSnapshot], None]] = []
        #: Store-wide monotonic epoch: moves on *every* rule mutation for
        #: *any* contributor, on every :meth:`restore` (reload or WAL
        #: replay installs state this process has never evaluated under),
        #: and — advanced by :func:`repro.storage.records.apply` — on every
        #: labeled-places assignment, since places feed rule semantics.
        #: The release cache keys decisions by this epoch, so "bump the
        #: epoch" is the one invariant that keeps cached grants fresh —
        #: per-contributor versions exist for broker sync and cannot serve
        #: that role because ``restore`` rewinds them.
        self.rules_version = 0

    def on_change(self, listener: Callable[[RuleSetSnapshot], None]) -> None:
        """Register a callback fired after every rule mutation.

        The data-store service uses this to push rule changes to the
        broker (eager sync) and to the contributor's phone (rule-aware
        collection).
        """
        self._listeners.append(listener)

    def _notify(self, contributor: str) -> None:
        snapshot = self.snapshot(contributor)
        for listener in self._listeners:
            listener(snapshot)

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------

    def register(self, contributor: str) -> None:
        """Create an empty, version-0 rule set for a new contributor."""
        self._rules.setdefault(contributor, [])
        self._versions.setdefault(contributor, 0)

    def add(self, contributor: str, rule: Rule) -> Rule:
        """Add one rule for a contributor; duplicate rule ids are rejected.

        Re-adding a rule *identical* to the one already stored under its
        id is an idempotent no-op: a replication rejection (503)
        leaves the rule applied locally, and the client's retry of the
        same request must converge instead of faulting on its own success.
        """
        rules = self._rules.setdefault(contributor, [])
        for existing in rules:
            if existing.rule_id == rule.rule_id:
                if existing == rule:
                    return existing
                raise RuleError(
                    f"duplicate rule id {rule.rule_id!r} for {contributor!r}"
                )
        rules.append(rule)
        self._bump(contributor)
        return rule

    def remove(self, contributor: str, rule_id: str) -> Optional[Rule]:
        """Remove one rule by id; an absent id is an idempotent no-op.

        Returns the removed rule, or ``None`` when no such rule exists
        (no version bump, no listener fire).  The no-op arm mirrors
        :meth:`add`'s identical-rule tolerance: a replication
        rejection (503) leaves the rule already removed locally, and the
        client's retry of the same request must converge instead of
        faulting on its own success.
        """
        rules = self._rules.get(contributor, [])
        for i, rule in enumerate(rules):
            if rule.rule_id == rule_id:
                removed = rules.pop(i)
                self._bump(contributor)
                return removed
        return None

    def replace_all(self, contributor: str, rules: Iterable[Rule]) -> None:
        """Replace a contributor's entire rule set in one mutation."""
        self._rules[contributor] = list(rules)
        self._bump(contributor)

    def restore(self, contributor: str, rules: Iterable[Rule], version: int) -> None:
        """Install persisted state without notifying sync listeners.

        Used when reloading a store from disk (snapshot load and WAL
        replay): the broker already has this state, so firing sync
        listeners would be redundant traffic.  The store-wide
        :attr:`rules_version` epoch still advances — restored state was
        never evaluated by *this* process, so any cached decision keyed to
        an earlier epoch must become unreachable.
        """
        self._rules[contributor] = list(rules)
        self._versions[contributor] = version
        self.rules_version += 1

    def forget(self, contributor: str) -> None:
        """Drop a contributor's rule set entirely, without notifying.

        A resync's drop (:func:`repro.storage.records.replace`): the
        primary holds no rule set for her.  The epoch moves, as on
        :meth:`restore`.
        """
        self._rules.pop(contributor, None)
        self._versions.pop(contributor, None)
        self.rules_version += 1

    def _bump(self, contributor: str) -> None:
        """Advance both version counters, then fire change listeners."""
        self._versions[contributor] = self._versions.get(contributor, 0) + 1
        self.rules_version += 1
        self._notify(contributor)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def contributors(self) -> list:
        """Every contributor with a (possibly empty) rule set, sorted."""
        return sorted(self._rules)

    def rules_of(self, contributor: str) -> tuple:
        """One contributor's current rules, as a tuple."""
        return tuple(self._rules.get(contributor, ()))

    def version_of(self, contributor: str) -> int:
        """One contributor's per-contributor sync version (0 when unknown)."""
        return self._versions.get(contributor, 0)

    def snapshot(self, contributor: str) -> RuleSetSnapshot:
        """A versioned copy of one contributor's rules (the sync unit)."""
        return RuleSetSnapshot(
            contributor=contributor,
            version=self.version_of(contributor),
            rules=self.rules_of(contributor),
        )

    def get(self, contributor: str, rule_id: str) -> Rule:
        """Look up one rule by id; raises MissingRecordError when absent."""
        for rule in self._rules.get(contributor, ()):
            if rule.rule_id == rule_id:
                return rule
        raise MissingRecordError(f"no rule {rule_id!r} for contributor {contributor!r}")
