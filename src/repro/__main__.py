"""Command-line entry point.

``python -m repro`` runs the self-check demo: builds a miniature
deployment, runs the paper's headline flow, and prints a short report,
exiting non-zero if any invariant fails — a post-install smoke test.

``python -m repro conformance [...]`` runs the privacy-conformance
harness (see :mod:`repro.conformance.runner`) instead.

``python -m repro obs report [...]`` runs the observability demo: an
end-to-end scenario whose metrics snapshot and query trace tree are
printed (and optionally dumped as JSON); see :mod:`repro.obs.report`.

``python -m repro obs fleet [--drill ...]`` runs a replicated deployment,
scrapes every host through the broker's fleet aggregator, and renders the
cluster-wide telemetry report: per-host health, fleet totals, privacy-SLO
burn status, and the slow-query log; see :mod:`repro.obs.fleet`.

``python -m repro recover --dir DIR --host HOST [...]`` recovers a
store's durable state offline — replays the write-ahead log over the
last good snapshot, reports torn/quarantined/fail-closed outcomes, and
can write a fresh checkpoint; see :mod:`repro.storage.cli`.

``python -m repro sim --seed N [--out F]`` drives a replicated shard
through seeded schedules of writes, reads, crashes, restarts, partitions
and failovers, checking the fleet's invariants after every step, and
shrinks a failing schedule into ``F``; see :mod:`repro.conformance.sim`.
"""

from __future__ import annotations

import sys

from repro import (
    ALLOW,
    DataQuery,
    Interval,
    PhoneConfig,
    Rule,
    SensorSafeSystem,
    SimulatorConfig,
    TraceSimulator,
    abstraction,
    make_persona,
    timestamp_ms,
)

MONDAY = timestamp_ms(2011, 2, 7)


def main() -> int:
    print("SensorSafe self-check")
    print("=====================")
    system = SensorSafeSystem(seed=1)
    alice = system.add_contributor("alice")
    persona = make_persona("alice", commute_mode="Drive", stress_prob=0.4)
    alice.set_places(persona.places.values())
    alice.add_rule(Rule(consumers=("bob",), action=ALLOW))
    alice.add_rule(
        Rule(consumers=("bob",), contexts=("Drive",), action=abstraction(Stress="NotShare"))
    )
    trace = TraceSimulator(persona, SimulatorConfig(rate_scale=0.05), seed=1).run(
        MONDAY, days=1
    )
    phone = alice.phone(PhoneConfig(rule_aware=True))
    phone.collect(trace.all_packets_sorted())
    print(f"  uploaded {phone.stats.samples_uploaded:,} samples "
          f"(gate skipped {phone.stats.samples_skipped_gate:,})")

    bob = system.add_consumer("bob")
    bob.add_contributors(["alice"])
    released = bob.fetch(
        "alice", DataQuery(time_range=Interval(MONDAY, MONDAY + 86_400_000))
    )
    print(f"  bob received {len(released)} released pieces")

    failures = []
    drive_windows = {
        item.interval.start // 60_000
        for item in released
        if item.context_labels.get("Activity") == "Drive"
    }
    for item in released:
        if item.interval.start // 60_000 in drive_windows:
            if "Stress" in item.context_labels or "ECG" in item.channels():
                failures.append("stress leaked while driving")
                break
    if not drive_windows:
        failures.append("no driving windows released (simulation problem)")
    broker_bytes = system.traffic()["broker"].total_bytes()
    store_bytes = system.traffic()["alice-store"].total_bytes()
    print(f"  traffic: broker {broker_bytes:,} B, store {store_bytes:,} B")
    if broker_bytes >= store_bytes:
        failures.append("broker carried more traffic than the data store")

    if failures:
        for failure in failures:
            print(f"  FAIL: {failure}")
        return 1
    print("  all invariants held — OK")
    return 0


def dispatch(argv: list) -> int:
    if argv and argv[0] == "conformance":
        from repro.conformance.runner import main as conformance_main

        return conformance_main(argv[1:])
    if argv and argv[0] == "obs":
        from repro.obs.report import main as obs_main

        return obs_main(argv[1:])
    if argv and argv[0] == "recover":
        from repro.storage.cli import main as recover_main

        return recover_main(argv[1:])
    if argv and argv[0] == "sim":
        from repro.conformance.sim import main as sim_main

        return sim_main(argv[1:])
    if argv:
        print(
            f"unknown subcommand {argv[0]!r}; known: conformance, obs, recover, sim",
            file=sys.stderr,
        )
        return 2
    return main()


if __name__ == "__main__":
    sys.exit(dispatch(sys.argv[1:]))
