"""Telemetry off means off: a disabled hub holds no series and no span.

``SensorSafeSystem(telemetry=False)`` and every component built without a
hub meter into a disabled hub, whose instruments are inert.  Its registry
used to count every request's ``net_*`` traffic all the same.
"""

from repro.broker.search import SearchCriteria
from repro.core.system import SensorSafeSystem
from repro.datastore.cache import CacheEntry, ReleaseCache
from repro.datastore.query import DataQuery
from repro.datastore.segment_store import SegmentStore
from repro.obs import noop_observability
from repro.rules.engine import RuleEngine
from repro.rules.model import ALLOW, Rule

from tests.conftest import make_segment

EMPTY = {"Counters": {}, "Gauges": {}, "Histograms": {}}

ALLOW_BOB = Rule(consumers=("bob",), action=ALLOW)


def test_a_telemetry_off_deployment_records_nothing(tmp_path):
    system = SensorSafeSystem(seed=7, telemetry=False)
    primary = system.create_replicated_store(
        "alice-store", directory=str(tmp_path), n_replicas=1
    )
    alice = system.add_contributor("alice", store=primary)
    bob = system.add_consumer("bob")
    bob.add_contributors(["alice"])
    alice.add_rule(ALLOW_BOB)

    alice.upload_segments([make_segment()])
    alice.flush()
    assert len(bob.fetch("alice")) == 1
    assert bob.search(SearchCriteria(consumer="bob", channels=("ECG",))) == ["alice"]
    system.broker.failover.heartbeat()

    assert system.obs.snapshot() == EMPTY
    assert system.obs.tracer.finished == []
    assert system.traffic()["alice-store"].requests_in == 0


def test_components_without_a_hub_share_one_that_holds_nothing():
    hub = noop_observability()
    assert noop_observability() is hub
    store = SegmentStore()
    store.add_segment(make_segment())
    store.flush()
    query = DataQuery()
    result = store.query("alice", query)
    assert result.segments
    engine = RuleEngine([ALLOW_BOB])
    assert engine.obs is hub
    assert engine.evaluate("bob", result.segments)
    assert engine.evaluate_segment("bob", result.segments[0])
    cache = ReleaseCache(capacity=1)
    for n in range(3):
        assert cache.get(("k", n)) is None
        cache.put(("k", n), CacheEntry.of((), 0))

    assert hub.snapshot() == EMPTY
    assert hub.tracer.finished == []
    assert hub.metrics.counter_value("rule_evaluations_total") == 0
