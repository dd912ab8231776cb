"""The broker's shard directory: consistent hashing + versioned routing.

The paper's scalability story is that "the broker only brokers": data
flows contributor-store -> consumer directly, so the broker's job is to
answer *where* a contributor lives — a directory lookup, not a data
transfer.  This module makes that directory real at fleet scale:

* :class:`HashRing` — consistent hashing with virtual nodes.  New
  contributors are *placed* on a shard by hashing their name; adding a
  shard moves only ``~1/N`` of future placements, which is what makes a
  shard split migrate a bounded contributor range instead of reshuffling
  the world.
* :class:`ShardDirectory` — the routing table.  Per-contributor routes
  stay authoritative in the :class:`~repro.broker.registry
  .ContributorRegistry` (one record, one host); the directory makes every
  route *change* (shard add/remove, failover repoint, migration cutover)
  and stamps it with a monotonically increasing ``routing_epoch``.

The epoch reuses the ``rules_version`` trick from
:mod:`repro.datastore.cache`: clients cache ``(host, epoch)`` pairs, and
because every topology change bumps the epoch, a stale client cache is
*unreachable by construction* — the moved contributor's old shard fences
the request with :class:`~repro.exceptions.NotPrimaryError` (the same
409 the failover path uses), the client re-resolves here, and the fresh
route carries a fresh epoch.  No TTLs, no guessing: a cached route is
either current or it self-identifies as stale on first use.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Optional

from repro.exceptions import ConflictError, NotFoundError
from repro.obs import NOOP_OBS

#: Virtual nodes per shard host.  More vnodes flatten placement skew at
#: the cost of a larger ring; 64 keeps the max/min contributor ratio
#: within ~20% for realistic fleet sizes (test_directory asserts this).
DEFAULT_VNODES = 64


def _hash64(key: str) -> int:
    """Stable 64-bit hash (sha1 prefix) — never Python's salted hash()."""
    return int.from_bytes(hashlib.sha1(key.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """Consistent-hash ring mapping contributor names to shard hosts."""

    def __init__(self, vnodes: int = DEFAULT_VNODES):
        self.vnodes = max(1, int(vnodes))
        self._points: list[int] = []  # sorted vnode positions
        self._owner: dict[int, str] = {}  # position -> host
        self._hosts: set[str] = set()

    def __len__(self) -> int:
        return len(self._hosts)

    def __contains__(self, host: str) -> bool:
        return host in self._hosts

    def hosts(self) -> list:
        """Shard hosts on the ring, sorted."""
        return sorted(self._hosts)

    def add(self, host: str) -> None:
        """Put a shard's virtual nodes on the ring; a duplicate is a conflict."""
        if host in self._hosts:
            raise ConflictError(f"shard already on the ring: {host!r}")
        self._hosts.add(host)
        for i in range(self.vnodes):
            point = _hash64(f"{host}#{i}")
            # Collisions across hosts are astronomically unlikely but must
            # not silently reassign an existing vnode; skip ours instead.
            if point in self._owner:
                continue
            bisect.insort(self._points, point)
            self._owner[point] = host

    def remove(self, host: str) -> None:
        """Take a shard's virtual nodes off the ring."""
        if host not in self._hosts:
            raise NotFoundError(f"shard not on the ring: {host!r}")
        self._hosts.discard(host)
        dead = [p for p, h in self._owner.items() if h == host]
        for point in dead:
            del self._owner[point]
        self._points = sorted(self._owner)

    def route(self, key: str) -> str:
        """The shard host owning ``key``: first vnode clockwise of its hash."""
        if not self._points:
            raise NotFoundError("hash ring has no shards")
        idx = bisect.bisect(self._points, _hash64(key))
        if idx == len(self._points):
            idx = 0  # wrap: the ring is a circle
        return self._owner[self._points[idx]]


class ShardDirectory:
    """Versioned routing table over the contributor registry.

    The registry record's ``host`` field stays the single source of truth
    for "where does contributor X live"; this class owns the *placement*
    policy (the hash ring) and the *version* of the table (the routing
    epoch).  Every mutation path that changes any route goes through here
    so the epoch can never miss a change — after
    :meth:`~repro.broker.registry.ContributorRegistry.register`, :meth:`move`
    is the only code that assigns a record's ``host`` (a synced profile
    moves the rules mirror, never the route; ``tests/broker/
    test_directory.py`` fails the build otherwise):

    * :meth:`add_shard` / :meth:`remove_shard` — topology changes;
    * :meth:`repoint` — failover re-homing a whole host;
    * :meth:`move` — migration cutover re-homing chosen contributors.
    """

    def __init__(self, registry, *, vnodes: int = DEFAULT_VNODES, obs=None):
        self.registry = registry
        self.ring = HashRing(vnodes)
        #: Monotonic routing-table version; bumped by every route change.
        #: Starts at 1 so "0" can mean "client has never resolved".
        self.routing_epoch = 1
        self.obs = obs or NOOP_OBS
        m = self.obs.metrics
        self._c_lookups = m.counter("routing_lookups_total")
        self._c_moves = m.counter("routing_moves_total")
        m.gauge("routing_epoch", callback=lambda: self.routing_epoch)
        m.gauge("shard_count", callback=lambda: len(self.ring))

    # -- topology --------------------------------------------------------

    def add_shard(self, host: str) -> int:
        """Put a shard host on the ring; returns the new routing epoch."""
        self.ring.add(host)
        return self._bump()

    def remove_shard(self, host: str) -> int:
        """Take a shard off the ring (existing routes are untouched)."""
        self.ring.remove(host)
        return self._bump()

    def shards(self) -> list:
        """Shard hosts currently in the directory, sorted."""
        return self.ring.hosts()

    # -- placement and lookup -------------------------------------------

    def place(self, contributor: str) -> Optional[str]:
        """The shard a *new* contributor should live on (None: no fleet)."""
        if not len(self.ring):
            return None
        return self.ring.route(contributor)

    def route(self, contributor: str) -> tuple:
        """Authoritative ``(host, routing_epoch)`` for one contributor."""
        record = self.registry.get(contributor)
        self._c_lookups.inc()
        return record.host, self.routing_epoch

    # -- route changes (every one bumps the epoch) -----------------------

    def repoint(self, old_host: str, new_host: str) -> int:
        """Failover path: re-home every contributor of one host; returns moved."""
        return self.move([r.name for r in self.registry.on_host(old_host)], new_host)

    def move(self, contributors, new_host: str) -> int:
        """Migration cutover: re-home chosen contributors in one epoch bump."""
        moved = 0
        for name in contributors:
            record = self.registry.get(name)
            if record.host != new_host:
                record.host = new_host
                moved += 1
        if moved:
            self._bump(moved)
        return moved

    def _bump(self, moved: int = 0) -> int:
        self.routing_epoch += 1
        self._c_moves.inc(moved)
        return self.routing_epoch

    # -- split planning --------------------------------------------------

    def plan_split(self, source_host: str, new_host: str) -> list:
        """Contributors a split would move ``source_host`` -> ``new_host``.

        Assumes ``new_host`` is already on the ring (add it first, so new
        registrations land there while the migration runs): the plan is
        every contributor *currently on the source* whose ring placement
        is the new shard.  Contributors the ring maps elsewhere stay put —
        a split never touches more than the moving range.
        """
        return [
            record.name
            for record in self.registry.on_host(source_host)
            if self.ring.route(record.name) == new_host
        ]

    # -- introspection ---------------------------------------------------

    def status(self) -> dict:
        """Routing-table summary for ``/api/shards/status`` and the fleet."""
        per_shard = {host: 0 for host in self.ring.hosts()}
        off_ring = 0
        for record in self.registry.all():
            if record.host in per_shard:
                per_shard[record.host] += 1
            else:
                off_ring += 1
        return {
            "Epoch": self.routing_epoch,
            "Shards": per_shard,
            "OffRing": off_ring,
            "Contributors": len(self.registry),
        }
