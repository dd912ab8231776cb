"""Differential sweep: cached vs. uncached release, byte for byte.

Twin stores are loaded with the same generated trial — one with the
release cache enabled, one with it disabled — and driven through an
identical step script of repeated queries interleaved with rule
mutations, membership flips, places edits, and changes to the stored
data: a delete, a delete followed by re-installing the identical
segments (content back where it was, a new data epoch), a compaction and
a self-resync.  Every response body must be byte-identical between the
twins at every step; the cached twin must also actually take cache hits,
or the sweep proves nothing.

A second variant makes the twins durable and puts a crash/recovery
boundary in the middle of the script: the restarted process starts with
an empty cache, and the first post-restart responses must still match.
"""

import random

import pytest

from repro.conformance.generators import TrialGenerator
from repro.datastore.query import DataQuery
from repro.net import wire
from repro.net.transport import Network
from repro.server.datastore_service import DataStoreService
from repro.storage import records

HOST = "twin-store"


def load_trial(service, trial):
    """Install one trial's rules/segments/memberships/places."""
    service.register_contributor(trial.contributor)
    key = service.register_consumer(
        trial.consumer, groups=trial.memberships.get(trial.consumer, ())
    )
    service.set_places(trial.contributor, trial.places)
    service.rules.replace_all(trial.contributor, trial.rules)
    for segment in trial.segments:
        service.store.add_segment(segment)
    service.store.flush()
    return key


def post_query(service, key, trial, query):
    body = service.network.request(
        "POST",
        f"https://{service.host}/api/query",
        {"Contributor": trial.contributor, "Query": query.to_json(), "ApiKey": key},
    ).body
    # Two stores failing identically would also "agree"; rule that out.
    assert "Error" not in body, body
    return wire.encode(body)


class TwinDriver:
    """Applies one step script identically to a cached and a plain store."""

    def __init__(self, trial, services, keys):
        self.trial = trial
        self.services = services
        self.keys = keys
        # The driver owns the evolving rule list so both twins always
        # receive the exact same object sequence.
        self.current_rules = list(trial.rules)
        self.comparisons = 0
        self.divergences = []

    def compare(self, query):
        cached, plain = (
            post_query(s, k, self.trial, query)
            for s, k in zip(self.services, self.keys)
        )
        self.comparisons += 1
        if cached != plain:
            self.divergences.append(
                f"trial {self.trial.seed}: step {self.comparisons} diverged"
            )

    def mutate(self, kind, rng, gen):
        if kind == "add_rule":
            self.current_rules = self.current_rules + [
                gen.gen_rule(rng, self.trial.places)
            ]
        elif kind == "drop_rule" and self.current_rules:
            self.current_rules = list(self.current_rules)
            self.current_rules.pop(rng.randrange(len(self.current_rules)))
        elif kind == "membership":
            groups = set(
                self.services[0].memberships.get(self.trial.consumer, frozenset())
            )
            group = rng.choice(("study-x", "cardiology", "labmates"))
            groups.symmetric_difference_update({group})
            # A complete role row, as a primary ships it: the toggle takes
            # a group away as well as adding one.
            row = {
                "Principal": self.trial.consumer,
                "Role": "consumer",
                "Groups": sorted(groups),
            }
            for service in self.services:
                records.apply(service, records.OP_ROLE, row, journal=False)
            return
        elif kind in DATA_CHANGES:
            for service in self.services:
                self.change_data(service, kind)
            return
        elif kind == "places":
            labels = sorted(self.trial.places)
            keep = {
                label: place
                for label, place in self.trial.places.items()
                if not labels or label != rng.choice(labels or [""])
            }
            for service in self.services:
                service.set_places(self.trial.contributor, keep)
            return
        else:
            return
        for service in self.services:
            service.rules.replace_all(self.trial.contributor, self.current_rules)

    def change_data(self, service, kind):
        store, contributor = service.store, self.trial.contributor
        if kind == "compact":
            store.compact(contributor)
        elif kind == "resync":
            records.replace(service, list(records.dump(service)))
        else:
            held = store.segments_of(contributor)
            if not held:
                return
            store.delete(contributor, DataQuery(time_range=held[0].interval))
            if kind == "reupload":
                kept = {s.segment_id for s in store.segments_of(contributor)}
                for segment in held:
                    if segment.segment_id not in kept:
                        records.apply(service, records.OP_SEGMENT, segment.to_json(), journal=False)


#: Changes to the stored data, each run between queries by :func:`drive`.
DATA_CHANGES = ("delete", "reupload", "compact", "resync")


def drive(trial, services, keys, *, rounds=3):
    """Run the repeated-query + mutation script; returns the driver."""
    rng = random.Random(f"cache-sweep:{trial.seed}")
    gen = TrialGenerator(99)
    driver = TwinDriver(trial, services, keys)
    queries = [DataQuery(), gen.gen_query(rng)]
    for _ in range(rounds):
        for query in queries:
            driver.compare(query)
            driver.compare(query)  # identical repeat: the cached twin hits
        driver.mutate(
            rng.choice(("add_rule", "drop_rule", "membership", "places")), rng, gen
        )
    # One final look after the last mutation.
    driver.compare(queries[0])
    for kind in DATA_CHANGES:
        driver.mutate(kind, rng, gen)
        driver.compare(queries[0])
        driver.compare(queries[0])
    return driver


def sweep(n_trials: int) -> tuple:
    generator = TrialGenerator(5150)
    comparisons, divergences, hits = 0, [], 0
    for trial in generator.trials(n_trials):
        services, keys = [], []
        for capacity in (256, 0):
            service = DataStoreService(
                HOST, Network(), seed=0, cache_capacity=capacity
            )
            services.append(service)
            keys.append(load_trial(service, trial))
        driver = drive(trial, services, keys)
        comparisons += driver.comparisons
        divergences.extend(driver.divergences)
        hits += services[0].network.obs.metrics.counter_value(
            "cache_hits_total", store=HOST
        )
    return comparisons, divergences, hits


def test_cached_and_uncached_releases_are_byte_identical():
    comparisons, divergences, hits = sweep(40)
    assert comparisons >= 500
    assert divergences == []
    # The sweep only means something if the cached twin served hits.
    assert hits >= 40


@pytest.mark.slow
def test_cached_and_uncached_releases_agree_at_scale():
    comparisons, divergences, hits = sweep(200)
    assert comparisons >= 2500
    assert divergences == []
    assert hits >= 200


def test_recovery_boundary_preserves_byte_identity(tmp_path):
    """Crash + fail-closed recovery in the middle of a repeated query run."""
    generator = TrialGenerator(5151)
    rng = random.Random("cache-recovery")
    gen = TrialGenerator(77)
    total_hits = 0
    for index in range(6):
        trial = generator.trial(index)
        dirs = [str(tmp_path / f"t{index}-cached"), str(tmp_path / f"t{index}-plain")]
        services, keys = [], []
        for directory, capacity in zip(dirs, (256, 0)):
            service = DataStoreService(
                HOST,
                Network(),
                seed=0,
                directory=directory,
                durable=True,
                cache_capacity=capacity,
            )
            services.append(service)
            keys.append(load_trial(service, trial))
        driver = TwinDriver(trial, services, keys)
        query = DataQuery()
        driver.compare(query)
        driver.compare(query)
        driver.mutate("add_rule", rng, gen)
        driver.compare(query)
        for service in services:
            service._wal_commit()
        total_hits += services[0].network.obs.metrics.counter_value(
            "cache_hits_total", store=HOST
        )

        # "Crash": drop the live objects and recover twins from disk.
        restarted = [
            DataStoreService(
                HOST,
                Network(),
                seed=0,
                directory=directory,
                durable=True,
                cache_capacity=capacity,
            )
            for directory, capacity in zip(dirs, (256, 0))
        ]
        # A restarted process starts with an empty cache: nothing cached
        # survives the boundary.
        assert len(restarted[0].release_cache) == 0
        # API keys are session state; restored roles (groups included)
        # let us re-issue.
        keys2 = [s.keys.issue(trial.consumer) for s in restarted]
        driver2 = TwinDriver(trial, restarted, keys2)
        driver2.current_rules = list(driver.current_rules)
        driver2.compare(query)
        driver2.compare(query)
        driver2.mutate("drop_rule", rng, gen)
        driver2.compare(query)
        assert driver.divergences == [] and driver2.divergences == []
    assert total_hits >= 6
