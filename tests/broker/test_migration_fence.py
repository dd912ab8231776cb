"""A migration is one copy, checked at the fence.

The source sends a contributor range to the destination (send → install)
and the broker then fences the source with the send's ``Digest``.  The
source recomputes it: a write to the range between the copy and the fence
is a 409 that moves nothing, so the write is never left behind at a store
the directory no longer routes to.  A fence that lands means the
destination holds the range's exact state, so one copy ships each record
once, whether the source keeps a log or not.
"""

import pytest

from repro.core import SensorSafeSystem
from repro.datastore.query import DataQuery
from repro.exceptions import ConflictError
from repro.rules.model import ALLOW, Rule
from repro.storage import records
from repro.util.timeutil import Interval

from tests.conftest import MONDAY, make_segment

HOUR = 3_600_000


def alice_on_shard_1(tmp_path):
    """alice on durable shard-1, one segment shared with bob; shard-2 is attached."""
    system = SensorSafeSystem(seed=7)
    for host in ("shard-1", "shard-2"):
        system.create_store(host, directory=str(tmp_path / host), durable=True)
    alice = system.add_contributor("alice", store=system.stores["shard-1"])
    alice.add_rule(Rule(consumers=("bob",), action=ALLOW))
    alice.upload_segments([make_segment(start_ms=MONDAY)])
    alice.flush()
    bob = system.add_consumer("bob")
    bob.add_contributors(["alice"])
    return system, alice, bob


class TestARacingWriteAbortsTheMove:
    def race(self, system, monkeypatch, write):
        """Run ``write`` right after the destination installs, before the fence."""
        routes = system.stores["shard-2"].router._routes
        install = routes["POST /api/migrate/install"]

        def install_then_write(request):
            response = install(request)
            write()
            return response

        monkeypatch.setitem(routes, "POST /api/migrate/install", install_then_write)

    def test_the_fence_is_a_409_and_nothing_moves(self, tmp_path, monkeypatch):
        system, alice, bob = alice_on_shard_1(tmp_path)
        source, broker = system.stores["shard-1"], system.broker
        epoch = broker.directory.routing_epoch

        def upload():
            alice.upload_segments([make_segment(start_ms=MONDAY + HOUR)])
            alice.flush()

        self.race(system, monkeypatch, upload)
        with pytest.raises(ConflictError) as refused:
            broker.rebalancer.migrate(["alice"], "shard-2")
        assert refused.value.status == 409
        assert source.roles["alice"] == records.ROLE_CONTRIBUTOR  # no fence at the source
        assert (broker.registry.get("alice").host, broker.directory.routing_epoch) == (
            "shard-1", epoch
        )
        assert len(source.store.segments_of("alice")) == 2  # the source keeps the write
        assert len(bob.fetch("alice")) == 2
        assert broker.rebalancer.status()["Migrations"] == 0

    def test_a_retry_moves_exactly_what_the_source_holds(self, tmp_path, monkeypatch):
        """The aborted copy at the destination is fenced, so a segment it
        took that the owner deletes before the retry does not come back."""
        system, alice, bob = alice_on_shard_1(tmp_path)
        source, dest = system.stores["shard-1"], system.stores["shard-2"]
        extra = make_segment(start_ms=MONDAY + HOUR)

        def upload():
            alice.upload_segments([extra])
            alice.flush()

        self.race(system, monkeypatch, upload)
        with pytest.raises(ConflictError):
            system.broker.rebalancer.migrate(["alice"], "shard-2")
        assert dest.roles["alice"] == records.ROLE_MOVED
        monkeypatch.undo()
        copied = DataQuery(time_range=Interval(MONDAY, MONDAY + HOUR))
        assert alice.delete_data(copied) == 1  # the segment the aborted copy took
        assert system.broker.rebalancer.migrate(["alice"], "shard-2")["Moved"] == 1
        assert [s.segment_id for s in dest.store.segments_of("alice")] == [
            s.segment_id for s in source.store.segments_of("alice")
        ]
        assert len(bob.fetch("alice")) == 1


@pytest.mark.parametrize("durable", [True, False], ids=["durable", "non-durable"])
def test_a_split_ships_each_record_once(tmp_path, durable):
    system = SensorSafeSystem(seed=7)
    directory = str(tmp_path) if durable else None
    (source,) = system.create_shard_fleet(1, directory=directory, durable=durable)
    names = [f"user-{i}" for i in range(10)]
    for name in names:
        person = system.add_contributor(name, store=source)
        person.add_rule(Rule(consumers=("bob",), action=ALLOW))
        person.upload_segments([make_segment(contributor=name)])
        person.flush()
    report = system.split_shard("shard-1", "shard-2", directory=directory, durable=durable)
    moved = [name for name in names if system.broker.registry.get(name).host == "shard-2"]
    assert moved and report["Moved"] == len(moved)
    installed = records.dump(system.stores["shard-2"], moved)
    assert report["RecordsShipped"] == len(installed) > len(moved)
