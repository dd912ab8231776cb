"""C12 — Replicated stores: failover time, committed-write loss, lag.

Claims under test for the replication PR:

* **Failover is bounded by detection, not by data movement** — with the
  broker heartbeating every 2 s (simulated), a dead primary is replaced
  and the first consumer query succeeds within
  ``miss_threshold × heartbeat + promotion`` on the simulated clock.
* **Failover loses nothing it acknowledged** — a write is acked only
  once a replica holds it, so every sample whose upload/flush was acked
  before the crash is readable from the promoted replica: committed-write
  loss is **zero** (the acceptance gate).
* **Replica lag stays bounded under sustained ingest** — the shipper's
  per-replica backlog (frames behind the primary's WAL) is zero at every
  *ack* and drains to zero at every pump.
* **Revocation-to-silence across failover** — a rule revocation that no
  replica acked (refused to the owner) but that reached the broker's
  mirror still silences the contributor's data after the stale replica
  is promoted (fail-closed promotion), and the benchmark reports how much
  simulated time passes between the revocation and the first denied
  read.

Run standalone for the CI smoke check::

    PYTHONPATH=src python benchmarks/bench_c12_replication_failover.py --smoke
"""

import shutil
import sys
import tempfile

import numpy as np

from repro.core.system import SensorSafeSystem
from repro.datastore.wavesegment import WaveSegment
from repro.exceptions import ReplicationError
from repro.rules.model import ALLOW, Rule
from repro.util.timeutil import timestamp_ms

from conftest import format_table, report_table
from helpers import UCLA

MONDAY = timestamp_ms(2011, 2, 7)
HOUR_MS = 3_600_000
#: Simulated broker heartbeat cadence.
HEARTBEAT_MS = 2_000
SEGMENTS = 8
SAMPLES_PER_SEGMENT = 64

FAILOVER_HEADERS = ["detect ms", "first query ms", "promoted"]
LOSS_HEADERS = ["committed", "readable", "lost", "gate"]
LAG_HEADERS = ["max lag (frames)", "lag after pump", "lag after ack"]


def _segment(i):
    n = SAMPLES_PER_SEGMENT
    return WaveSegment(
        contributor="alice",
        channels=("ECG",),
        start_ms=MONDAY + i * HOUR_MS,
        interval_ms=1000,
        values=np.arange(n, dtype=float).reshape(n, 1),
        location=UCLA,
        context={"Activity": "Still", "Stress": "NotStressed"},
    )


def _build(workdir):
    system = SensorSafeSystem(seed=12)
    primary = system.create_replicated_store("alice-store", directory=workdir, n_replicas=1)
    alice = system.add_contributor("alice", store=primary)
    bob = system.add_consumer("bob")
    bob.add_contributors(["alice"])
    alice.add_rule(Rule(consumers=("bob",), action=ALLOW))
    return system, alice, bob


def _samples(pieces):
    return sum(len(p.segment.sample_times()) for p in pieces if p.segment is not None)


def _tick(system):
    system.clock.advance(HEARTBEAT_MS)
    return system.broker.failover.heartbeat()


def run_failover():
    """Kill the primary mid-workload; clock the detect→promote→query path."""
    workdir = tempfile.mkdtemp(prefix="c12-")
    try:
        system, alice, bob = _build(workdir)
        committed = 0
        for i in range(SEGMENTS):
            alice.upload_segments([_segment(i)])
            alice.flush()
            committed += SAMPLES_PER_SEGMENT
            _tick(system)
        system.network.unregister_host("alice-store")
        killed_at = system.clock.now_ms()
        promoted = None
        while promoted is None:
            report = _tick(system)["alice-store"]
            failed_over = report["FailedOver"]
            if failed_over is not None:
                promoted = failed_over["Promoted"]
        detect_ms = system.clock.now_ms() - killed_at
        readable = _samples(bob.fetch("alice"))
        first_query_ms = system.clock.now_ms() - killed_at
        return {
            "detect_ms": detect_ms,
            "first_query_ms": first_query_ms,
            "promoted": promoted,
            "committed": committed,
            "readable": readable,
            "lost": committed - readable,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_replica_lag():
    """Shipper backlog per ingest round: before pump, after pump, at ack."""
    workdir = tempfile.mkdtemp(prefix="c12-")
    try:
        system, alice, bob = _build(workdir)
        primary = system.stores["alice-store"]
        shipper = primary.replication
        max_lag = 0
        after_pump = []
        after_ack = []
        for i in range(SEGMENTS):
            alice.upload_segments([_segment(i)])
            alice.flush()
            # The flush barrier pumped and required an ack: lag here is
            # the post-request steady state.
            after_ack.append(shipper.lag_of("alice-store-r1"))
            max_lag = max(max_lag, shipper.lag_of("alice-store-r1"))
            shipper.pump()
            after_pump.append(shipper.lag_of("alice-store-r1"))
        return {
            "max_lag": max_lag,
            "after_pump": max(after_pump),
            "after_ack": max(after_ack),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_revocation_to_silence():
    """Simulated ms from revocation to the first denied read, across failover.

    Worst case for privacy: the revocation never reaches the replica (the
    ship link is partitioned), so the owner is told it was refused, but
    the primary applied it and the broker's mirror saw it.  The primary
    dies, and the stale replica — still carrying the revoked allow — is
    promoted.  Fail-closed promotion must silence the data anyway.
    """
    from repro.net.faults import FaultPlan

    workdir = tempfile.mkdtemp(prefix="c12-")
    try:
        system, alice, bob = _build(workdir)
        alice.upload_segments([_segment(0)])
        alice.flush()
        _tick(system)
        plan = FaultPlan(seed=12)
        plan.add_partition("ship-lost", {"alice-store"}, {"alice-store-r1"})
        system.install_faults(plan)
        try:
            alice.replace_rules([])  # the revocation; the mirror sees it
        except ReplicationError:
            pass  # no replica acked it: refused, yet possibly applied
        revoked_at = system.clock.now_ms()
        system.network.unregister_host("alice-store")
        system.install_faults(None)
        result = None
        while result is None:
            result = _tick(system)["alice-store"]["FailedOver"]
        silenced = bob.fetch("alice") == []
        return {
            "silence_ms": system.clock.now_ms() - revoked_at,
            "silenced": silenced,
            "fail_closed": "alice" in result["FailClosed"],
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all():
    return {
        "failover": run_failover(),
        "lag": run_replica_lag(),
        "revocation": run_revocation_to_silence(),
    }


def _failover_row(r):
    return [str(r["detect_ms"]), str(r["first_query_ms"]), r["promoted"]]


def _lag_row(r):
    return [str(r["max_lag"]), str(r["after_pump"]), str(r["after_ack"])]


def test_c12_failover_loses_nothing(benchmark):
    result = benchmark(run_failover)
    assert result["lost"] == 0
    assert result["promoted"] == "alice-store-r1"
    benchmark.extra_info["detect_ms"] = result["detect_ms"]
    benchmark.extra_info["first_query_ms"] = result["first_query_ms"]
    report_table(
        "C12 — Failover",
        FAILOVER_HEADERS,
        [_failover_row(result)],
        notes="zero committed-write loss across primary death",
    )


def test_c12_replica_lag_drains():
    result = run_replica_lag()
    assert result["after_pump"] == 0  # every pump drains the backlog
    assert result["after_ack"] == 0  # an acked request is a shipped request
    report_table("C12 — Replica lag under sustained ingest", LAG_HEADERS, [_lag_row(result)])


def test_c12_revocation_to_silence():
    result = run_revocation_to_silence()
    assert result["silenced"] and result["fail_closed"]
    report_table(
        "C12 — Revocation-to-silence across failover",
        ["simulated ms", "silenced", "fail-closed"],
        [[str(result["silence_ms"]), str(result["silenced"]), str(result["fail_closed"])]],
        notes="revocation seen only by the broker still wins post-promotion",
    )


def main(argv) -> int:
    """CI smoke mode: full scenario set, hard gates, no repeats."""
    if "--smoke" not in argv:
        print(__doc__)
        return 2
    results = run_all()
    failover, lag = results["failover"], results["lag"]
    print("C12 — Failover time (simulated clock)")
    print(format_table(FAILOVER_HEADERS, [_failover_row(failover)]))
    print("\nC12 — Committed-write loss")
    loss_row = [str(failover["committed"]), str(failover["readable"]), str(failover["lost"]), "== 0"]
    print(format_table(LOSS_HEADERS, [loss_row]))
    print("\nC12 — Replica lag")
    print(format_table(LAG_HEADERS, [_lag_row(lag)]))
    revocation = results["revocation"]
    print(
        f"\nC12 — Revocation-to-silence: {revocation['silence_ms']} ms simulated, "
        f"silenced={revocation['silenced']}, fail_closed={revocation['fail_closed']}"
    )
    if failover["lost"] != 0:
        print(f"C12 SMOKE FAILED: lost {failover['lost']} committed samples")
        return 1
    if not (revocation["silenced"] and revocation["fail_closed"]):
        print("C12 SMOKE FAILED: revoked data readable after failover")
        return 1
    if lag["after_pump"] != 0:
        print(f"C12 SMOKE FAILED: replica lag did not drain: {lag}")
        return 1
    print(
        f"replication smoke ok (loss 0/{failover['committed']}, "
        f"failover {failover['first_query_ms']} ms simulated)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
