"""``python -m repro replicas`` — replicated-store demo and failover drill.

Builds a miniature replicated deployment (one primary, ``--replicas``
replicas, broker-driven health checks), streams a small workload through
it, and prints the replica-set topology the broker's
``/api/replicas/status`` endpoint exposes.  With ``--drill`` it then
kills the primary, lets the broker detect and promote, and verifies the
replication contract end to end:

* the most-caught-up replica is promoted at a bumped epoch;
* every acknowledged sample is readable afterwards;
* a revocation that only reached the broker's rules mirror fails closed
  on the promoted replica until the owner re-publishes.

Exits non-zero if any of those invariants break, so the command doubles
as an operator smoke test for the failover path.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile


def _topology_lines(status: dict) -> list:
    lines = []
    for name, group in status.items():
        lines.append(
            f"  set {name}: primary={group['Primary']} epoch={group['Epoch']}"
        )
        for replica in group["Replicas"]:
            lines.append(f"    replica {replica}")
        for demoted in group["Demoted"]:
            lines.append(f"    demoted {demoted}")
        if group["Failovers"]:
            lines.append(f"    failovers so far: {group['Failovers']}")
    return lines


def _shipper_lines(status) -> list:
    """Lines for a store's ``/api/health`` ``Shipper`` answer."""
    if status is None:
        return ["  (no shipper attached)"]
    lines = [f"  wal last_lsn={status['LastLsn']} fenced={status['Fenced']}"]
    for host, link in status["Replicas"].items():
        lines.append(
            f"    {host}: acked_lsn={link['AckedLsn']} lag={link['Lag']} "
            f"alive={link['Alive']}"
        )
    return lines


def main(argv: list) -> int:
    """Entry point for ``python -m repro replicas``; returns an exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro replicas",
        description="Replicated-store topology demo and failover drill.",
    )
    parser.add_argument(
        "--replicas", type=int, default=2, help="replicas per set (default 2)"
    )
    parser.add_argument(
        "--segments", type=int, default=4, help="segments to commit (default 4)"
    )
    parser.add_argument(
        "--drill",
        action="store_true",
        help="kill the primary and verify detection, promotion, and fencing",
    )
    args = parser.parse_args(argv)

    # Imported lazily: the CLI must not drag the server stack into every
    # `import repro.broker`.
    import numpy as np

    from repro.core.system import SensorSafeSystem
    from repro.datastore.wavesegment import WaveSegment
    from repro.net.faults import FaultPlan
    from repro.rules.model import ALLOW, Rule
    from repro.util.geo import LatLon
    from repro.util.timeutil import timestamp_ms

    monday = timestamp_ms(2011, 2, 7)
    hour = 3_600_000
    failures = []

    def segment(i, n=32):
        return WaveSegment(
            contributor="alice",
            channels=("ECG",),
            start_ms=monday + i * hour,
            interval_ms=1000,
            values=np.arange(n, dtype=float).reshape(n, 1),
            location=LatLon(34.0689, -118.4452),
            context={"Activity": "Still", "Stress": "NotStressed"},
        )

    workdir = tempfile.mkdtemp(prefix="repro-replicas-")
    try:
        print("SensorSafe replica drill" if args.drill else "SensorSafe replica demo")
        print("========================")
        system = SensorSafeSystem(seed=6)
        primary = system.create_replicated_store(
            "alice-store", directory=workdir, n_replicas=args.replicas
        )
        alice = system.add_contributor("alice", store=primary)
        bob = system.add_consumer("bob")
        bob.add_contributors(["alice"])
        alice.add_rule(Rule(consumers=("bob",), action=ALLOW))

        committed = 0
        for i in range(args.segments):
            alice.upload_segments([segment(i)])
            alice.flush()
            committed += 32
            system.clock.advance(2_000)
            system.broker.failover.heartbeat()
        print(f"  committed {committed} samples across {args.segments} segments")
        print("  topology:")
        for line in _topology_lines(system.broker.failover.status()):
            print(line)
        print("  shipping:")
        key = system.broker.store_keys["alice-store"]
        status = system.network.request(
            "POST", "https://alice-store/api/health", {"ApiKey": key}
        ).body
        for line in _shipper_lines(status["Shipper"]):
            print(line)

        if not args.drill:
            print("  demo complete — OK (rerun with --drill to exercise failover)")
            return 0

        # The drill: a revocation the replicas never see, then a dead
        # primary.  The broker must promote the most-caught-up replica
        # and fail closed on the stale rules.
        from repro.exceptions import ReplicationError

        replica_hosts = {f"alice-store-r{i}" for i in range(1, args.replicas + 1)}
        plan = FaultPlan(seed=6)
        plan.add_partition("ship-lost", {"alice-store"}, replica_hosts)
        system.install_faults(plan)
        try:
            alice.replace_rules([])
            failures.append("a revocation no replica holds was acknowledged")
        except ReplicationError as exc:
            # The barrier refuses a write no replica can ack — but the
            # primary and the broker's mirror have already adopted it, so
            # the stale replicas must still fail closed after promotion.
            print(f"  revocation ack refused by the replication barrier: {exc}")
        revoked = system.broker.registry.get("alice").rules_version >= 2
        system.network.unregister_host("alice-store")
        system.install_faults(None)
        print("  killed alice-store; waiting on broker heartbeats...")

        result = None
        beats = 0
        while not (result and result["Promoted"]) and beats < 10:
            system.clock.advance(2_000)
            beats += 1
            result = system.broker.failover.heartbeat()["alice-store"]["FailedOver"]
        if not (result and result["Promoted"]):
            failures.append("broker never promoted a replica")
        else:
            print(
                f"  promoted {result['Promoted']} at epoch {result['Epoch']} "
                f"after {beats} heartbeat(s)"
            )
            if result["FailClosed"]:
                print(f"  fail-closed contributors: {sorted(result['FailClosed'])}")
            elif revoked:
                failures.append("stale-rules promotion did not fail closed")

        if revoked:
            released = bob.fetch("alice")
            if released:
                failures.append(
                    f"revoked data released post-failover ({len(released)} pieces)"
                )
            else:
                print("  bob's query against the promoted replica: denied — good")

        # The owner re-homes and re-publishes; data must flow again.
        system.repoint_contributor("alice")
        alice.replace_rules([Rule(consumers=("bob",), action=ALLOW)])
        readable = sum(
            len(p.segment.sample_times())
            for p in bob.fetch("alice")
            if p.segment is not None
        )
        print(f"  after re-publish: {readable}/{committed} committed samples readable")
        if readable < committed:
            failures.append(f"lost {committed - readable} acknowledged samples")

        print("  post-drill topology:")
        for line in _topology_lines(system.broker.failover.status()):
            print(line)

        if failures:
            for failure in failures:
                print(f"  FAIL: {failure}")
            return 1
        print("  all replication invariants held — OK")
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
