"""A replica that restarts ranks where its journal says it stands.

A replica's WAL is numbered by its primary, and the checkpoint manifest
names the epoch it follows, so a restarted replica reports the position
it held before it went down, read back from its own disk.  These cells
pin finding (f): with the primary dead, a replica that restarted used to
report position 0 and lose the election to a laggard, and bob read none
of alice's acknowledged samples.  A replica whose journal cannot vouch
for its position reports none, and the election then promotes nobody.
The election itself is a table: status rows in, one host (or none) out.
"""

import os

import pytest

from repro.broker.failover import elect
from repro.exceptions import TransportError
from repro.net.faults import FaultPlan
from repro.server.datastore_service import DataStoreService

from tests.broker.test_failover import detect_and_fail_over, kill, replicated_system
from tests.conftest import MONDAY, make_segment, read_wal_frames

HOUR = 3_600_000


def samples(pieces):
    return sum(len(piece.segment.sample_times()) for piece in pieces)


def lsn_gauge(system):
    """What the position gauge reads for r1: its LSN, or -1 when unknown."""
    return system.obs.metrics.gauge_value("replication_applied_lsn", store="alice-store-r1")


def lagging_r2_then_dead_primary(tmp_path):
    """Four acked uploads that r1 holds and r2 (cut off) does not; then
    the primary dies, cut off from every host."""
    system, alice, bob = replicated_system(tmp_path, n_replicas=2)
    plan = FaultPlan(seed=7)
    plan.add_partition("lag-r2", {"alice-store"}, {"alice-store-r2"})
    system.install_faults(plan)
    for hour in range(4):
        alice.upload_segments([make_segment(start_ms=MONDAY + hour * HOUR)])
        alice.flush()
    assert samples(bob.fetch("alice")) == 64
    kill(system, "alice-store")
    return system, bob


def restart_r1(system):
    """r1 restarts from its directory and the broker reconciles it; returns
    the restarted store and its ``/api/health`` answer."""
    old = system.stores["alice-store-r1"]
    old.durability.close()
    system.network.unregister_host(old.host)
    back = DataStoreService(
        old.host, system.network, directory=old.directory, durable=True, seed=system.seed
    )
    system.stores[old.host] = back
    system.reconcile(back)
    key = system.broker.store_keys[old.host]
    status = system.network.request(
        "POST", f"https://{old.host}/api/health", {"ApiKey": key}
    ).body
    return back, status


def test_a_restarted_replica_is_promoted_and_nothing_acked_is_lost(tmp_path):
    """Repro (f)."""
    system, bob = lagging_r2_then_dead_primary(tmp_path)
    r1, r2 = system.stores["alice-store-r1"], system.stores["alice-store-r2"]
    held = r1.durability.wal.last_lsn
    assert held > r2.durability.wal.last_lsn
    _back, status = restart_r1(system)
    assert lsn_gauge(system) == held
    result = detect_and_fail_over(system)
    assert result["Promoted"] == "alice-store-r1"
    assert samples(bob.fetch("alice")) == 64
    assert status["Position"] == {"Epoch": 1, "Lsn": held}


def flip_a_bit(system, offset):
    """Flip one bit of r1's WAL at ``offset``."""
    wal = system.stores["alice-store-r1"].durability.wal
    wal.commit()
    with open(wal.path, "r+b") as fh:
        fh.seek(offset)
        flipped = fh.read(1)[0] ^ 0x01
        fh.seek(offset)
        fh.write(bytes([flipped]))


def test_a_replica_whose_journal_is_damaged_is_not_ranked(tmp_path):
    """A flipped bit in r1's WAL: its restart is not clean, so it reports
    no position, and the set stays down instead of promoting r2."""
    system, bob = lagging_r2_then_dead_primary(tmp_path)
    flip_a_bit(system, 30)  # inside the first frame's payload
    back, status = restart_r1(system)
    assert not back.recovery_report.clean
    assert status["Position"] is None and lsn_gauge(system) == -1
    result = detect_and_fail_over(system)
    assert result["Promoted"] is None
    assert "position unknown" in result["Reason"] and "alice-store-r1" in result["Reason"]
    assert system.broker.failover.sets["alice-store"].primary == "alice-store"
    assert not system.stores["alice-store-r2"].is_primary and not back.is_primary
    with pytest.raises(TransportError):
        bob.fetch("alice")


def test_an_unknown_position_outlives_a_second_restart(tmp_path):
    """The flipped bit in the last frame r1 holds: its first restart repairs
    the log to the prefix below it and journals fail-closed denies at LSNs
    of its own, at and above the one the primary numbered that frame.  The
    second restart finds a clean log, which must still name no position."""
    system, bob = lagging_r2_then_dead_primary(tmp_path)
    r1 = system.stores["alice-store-r1"]
    r1.durability.wal.commit()
    *_held, (_lsn, frame, _chain_prev) = read_wal_frames(r1.durability.wal.path)
    flip_a_bit(system, os.path.getsize(r1.durability.wal.path) - len(frame) // 2)
    first, _status = restart_r1(system)
    assert not first.recovery_report.clean and first.recovery_report.fail_closed
    second, status = restart_r1(system)
    assert second.recovery_report.clean
    assert status["Position"] is None and lsn_gauge(system) == -1
    result = detect_and_fail_over(system)
    assert result["Promoted"] is None
    assert "position unknown" in result["Reason"] and "alice-store-r1" in result["Reason"]
    with pytest.raises(TransportError):
        bob.fetch("alice")


def rows(*members):
    """Election answers (a fence's or a health probe's) from ``(host, epoch, lsn)``; a
    ``None`` epoch is a position the journal cannot vouch for."""
    return {
        host: {"Host": host, "Position": None if epoch is None else {"Epoch": epoch, "Lsn": lsn}}
        for host, epoch, lsn in members
    }


@pytest.mark.parametrize(
    "members, elected",
    [
        # a tie on (Epoch, Lsn) breaks on host name
        ((("r2", 2, 9), ("r1", 2, 9), ("r3", 2, 7)), "r1"),
        # an ex-primary's unacked tail: a higher LSN at a lower epoch
        ((("ex", 1, 12), ("r1", 2, 10)), "r1"),
        # one member whose journal cannot vouch for it: nobody
        ((("r1", 2, 10), ("r2", None, None)), None),
        # all members equal
        ((("c", 3, 5), ("a", 3, 5), ("b", 3, 5)), "a"),
    ],
    ids=["tie", "older-epoch-tail", "one-unknown", "all-equal"],
)
def test_the_election_ranks_by_epoch_then_lsn(members, elected):
    host, reason = elect(rows(*members))
    assert host == elected
    assert bool(reason) == (elected is None)
    if elected is None:
        assert reason == "replica position unknown: ['r2']"


def test_a_silent_member_elects_nobody():
    statuses = {**rows(("r1", 2, 10)), "r2": None}
    assert elect(statuses) == (None, "replicas not answering: ['r2']")
    assert elect({}) == (None, "no replica")
