"""A replica that dies anywhere restarts at a position it can name, or none.

A replica's position is ``(Epoch, wal.last_lsn)``, read back from its own
journal: its WAL is numbered by its primary and the checkpoint manifest
names the epoch it follows.  Each crash point on a replica's path is armed
during a resync whose base is above the replica's log end, during one
whose base is below it (a second primary, at a newer epoch, with a shorter
history), and during streaming.  After the restart the replica reports
either a position whose records are exactly its primary's at that LSN, or
no position at all.  Never a position its records do not match.
"""

import pytest

from repro.net.client import HttpClient
from repro.net.transport import Network
from repro.rules.model import ALLOW, Rule
from repro.server.datastore_service import PRIMARY_PRINCIPAL, DataStoreService
from repro.storage import CRASH_POINTS, StorageFaultPlan, records
from repro.util.jsonutil import canonical_dumps

from tests.conftest import MONDAY, make_segment

RESYNC_POINTS = tuple(p for p in CRASH_POINTS if not p.startswith("wal.append"))
STREAM_POINTS = tuple(p for p in CRASH_POINTS if p.startswith("wal.append"))
#: Points where a resync's checkpoint has not yet touched a snapshot file,
#: or has written its manifest: the journal always names a position there.
KNOWN_AFTER = (
    "wal.commit.pre_fsync", "checkpoint.pre_snapshot",
    "checkpoint.manifest.post_rename", "checkpoint.pre_wal_reset", "checkpoint.done",
)


def held(service):
    """The records a store holds, minus a replica's own pairing row."""
    return sorted(
        canonical_dumps([op, data])
        for op, data in records.dump(service)
        if not (op == records.OP_ROLE and data["Principal"] == PRIMARY_PRINCIPAL)
    )


class Deployment:
    """Primaries shipping by hand to one durable replica; every state a
    primary passed through is kept, keyed by ``(epoch, lsn)``."""

    def __init__(self, tmp_path):
        self.tmp_path = tmp_path
        self.network = Network()
        self.seen = {}
        self.replica = DataStoreService(
            "replica", self.network, directory=str(tmp_path / "replica"), durable=True
        )
        self.replica.demote()
        self.primary = self.start_primary("primary", epoch=1)

    def start_primary(self, host, *, epoch):
        primary = DataStoreService(host, self.network, directory=str(self.tmp_path / host),
                                   durable=True)
        if epoch > 1:
            primary.promote(epoch)
        shipper = primary.enable_replication()
        key = self.replica.pair_primary()
        shipper.attach("replica", HttpClient(self.network, name=host, api_key=key))
        self.note(primary)
        return primary

    def note(self, primary):
        self.seen[(primary.epoch, primary.durability.wal.last_lsn)] = held(primary)

    def write(self, primary, i, *, ship=True):
        """One record, one frame: a role, a rule set, or a segment."""
        name = f"c{i}"
        if i % 3 == 0:
            primary.register_contributor(name)
        elif i % 3 == 1:
            primary.rules.add(f"c{i - 1}", Rule(consumers=("bob",), action=ALLOW))
        else:
            primary.store.add_segment(make_segment(contributor=f"c{i - 2}", start_ms=MONDAY + i))
            primary.store.flush()
        self.note(primary)
        if ship:
            primary.replication.pump()

    def arm(self, point):
        plan = StorageFaultPlan(seed=5)
        if point.endswith(".write"):
            plan.add_torn_write(point)
        else:
            plan.add_crash(point)
        self.replica.durability.faults = plan
        self.replica.durability.wal.faults = plan
        return plan

    def restart(self):
        """The replica's process is gone; it comes back from its directory."""
        old = self.replica
        old.durability.wal.faults = None
        old.durability.close()
        self.network.unregister_host(old.host)
        return DataStoreService(old.host, self.network, directory=old.directory, durable=True)


def fired(plan):
    return [event.point for event in plan.log if event.outcome != "pass"]


def check(deployment, back):
    """The restarted replica names a position its records match, or none."""
    position = back.position()
    if position is not None:
        assert held(back) == deployment.seen[(position["Epoch"], position["Lsn"])]
    return position


@pytest.mark.parametrize("point", RESYNC_POINTS)
@pytest.mark.parametrize("base", ["above", "below"])
def test_a_replica_dies_in_a_resync(tmp_path, base, point):
    deployment = Deployment(tmp_path)
    primary = deployment.primary
    primary.replication.pump()  # the first resync, at base 0
    for i in range(6):  # streamed, ending on a segment in the group window
        deployment.write(primary, i)
    end = deployment.replica.durability.wal.last_lsn
    assert end == primary.durability.wal.last_lsn == 6
    if base == "above":
        for i in range(6, 9):
            deployment.write(primary, i, ship=False)
        source = primary
        source.replication.links["replica"].resync = True
    else:
        source = deployment.start_primary("newer", epoch=2)
        deployment.write(source, 9, ship=False)  # c9: a history of its own
    assert (source.durability.wal.last_lsn > end) == (base == "above")
    plan = deployment.arm(point)
    source.replication.pump()
    assert fired(plan) == [point]

    position = check(deployment, deployment.restart())
    if point in KNOWN_AFTER:
        assert position is not None


@pytest.mark.parametrize("point", STREAM_POINTS)
def test_a_replica_dies_while_streaming(tmp_path, point):
    deployment = Deployment(tmp_path)
    primary = deployment.primary
    primary.replication.pump()
    for i in range(4):
        deployment.write(primary, i)
    plan = deployment.arm(point)
    deployment.write(primary, 6)  # a role: force-synced, so every point is on its path
    assert fired(plan) == [point]

    position = check(deployment, deployment.restart())
    assert position is not None and position["Lsn"] in (4, 5)
