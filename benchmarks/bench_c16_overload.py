"""C16 — Overload control: goodput under load, brownout, and recovery.

Claims under test for the overload-control PR:

* **Goodput survives overload** — with admission control enforced, a
  store offered 5× its query capacity still delivers ≥ 80% of its peak
  goodput (2xx within the client deadline, per simulated second); the
  unprotected twin (observe mode: every request admitted) collapses as
  its virtual backlog — and with it every response's latency — grows
  without bound.
* **Sheds are privacy-clean** — every non-2xx during the storm is a
  typed 503 ``OverloadedError`` or 504 ``DeadlineExpiredError`` whose
  body carries no released data: **zero violations** (acceptance gate).
* **The control plane stays responsive** — every owner's rules-list
  probe answers 200, and the p99 queue wait it observes stays bounded
  (the brownout ladder sheds scrapes/aggregates/queries first), even at
  10× offered load.
* **Recovery is immediate** — once the burst ends, the enforced store's
  bounded backlog drains within simulated seconds and 1× goodput
  returns to baseline; the unprotected twin owes its whole backlog.

The benchmark drives the simulated clock itself: arrivals are spread
across each simulated second at the offered rate, so queueing behavior
is deterministic and independent of host speed.

Run standalone for the CI smoke check::

    PYTHONPATH=src python benchmarks/bench_c16_overload.py --smoke
"""

import json
import os
import sys

from repro.core.system import SensorSafeSystem
from repro.net.resilience import NO_RETRY
from repro.rules.model import ALLOW, Rule
from repro.util.timeutil import timestamp_ms

from conftest import format_table, report_table
from helpers import UCLA, emit_obs_snapshot

MONDAY = timestamp_ms(2011, 2, 7)

#: Cold-query service cost is 5 simulated ms (see OverloadConfig), so a
#: store's query capacity is 200 q/s of simulated time.
CAPACITY_QPS = 200
#: Client deadline: a 2xx slower than this is late, not goodput.
DEADLINE_MS = 500
#: Offered-load multipliers swept in the full run.
RATES = (1, 2, 5, 10)
SMOKE_RATES = (1, 5)
DURATION_MS = 3_000
SMOKE_DURATION_MS = 1_500
#: Control-plane probe cadence (one rules-list request per interval).
CONTROL_PROBE_MS = 100

LOAD_HEADERS = [
    "mode", "offered x", "offered", "2xx", "goodput/s", "late", "shed",
    "p99 ctl queue ms", "end queue ms", "violations",
]
RECOVERY_HEADERS = ["mode", "drain ms", "1x goodput/s after", "baseline/s"]


def _segment():
    import numpy as np

    from repro.datastore.wavesegment import WaveSegment

    n = 64
    return WaveSegment(
        contributor="alice",
        channels=("ECG",),
        start_ms=MONDAY,
        interval_ms=1000,
        values=np.arange(n, dtype=float).reshape(n, 1),
        location=UCLA,
        context={"Activity": "Still", "Stress": "NotStressed"},
    )


def build_twin(mode):
    """One store, one contributor, one consumer; admission per ``mode``."""
    system = SensorSafeSystem(seed=16, overload=mode, retry=NO_RETRY)
    alice = system.add_contributor("alice")
    bob = system.add_consumer("bob")
    bob.add_contributors(["alice"])
    alice.add_rule(Rule(consumers=("bob",), action=ALLOW))
    alice.upload_segments([_segment()])
    alice.flush()
    key = bob.refresh_keys()["alice-store"]
    system.clock.advance(60_000)  # the setup backlog drains before the sweep
    return system, key


class LoadDriver:
    """Issues queries at an offered rate while advancing the sim clock.

    Every query is given a unique ``Limit`` so it misses the release
    cache — the sweep measures the cold-query path, the capacity the
    budgets are calibrated against.
    """

    def __init__(self, system, key):
        self.system = system
        self.key = key
        self.owner_key = system.contributors["alice"].client.api_key
        self.controller = system.stores["alice-store"].admission
        self.unique = 0
        self.offered = 0
        self.served = 0
        self.late = 0
        self.shed = 0
        self.violations = []
        self.control_queue_ms = []
        #: status of every control probe that did not answer 200.
        self.control_failures = []

    def _query(self):
        self.unique += 1
        self.offered += 1
        response = self.system.network.request(
            "POST",
            "https://alice-store/api/query",
            {
                "ApiKey": self.key,
                "Contributor": "alice",
                "Query": {"Limit": 100_000 + self.unique},
            },
            headers={"X-Deadline-Ms": str(DEADLINE_MS)},
        )
        if response.ok:
            if self.controller.last_rtt_ms <= DEADLINE_MS:
                self.served += 1
            else:
                self.late += 1
            return
        body = response.body or {}
        if response.status in (503, 504) and body.get("ErrorKind") in (
            "OverloadedError",
            "DeadlineExpiredError",
        ):
            self.shed += 1
            if "Released" in body or "Segments" in body:
                self.violations.append(f"shed leaked data: {sorted(body)}")
        else:
            self.violations.append(
                f"untyped rejection: {response.status} {body.get('ErrorKind')}"
            )

    def _control_probe(self):
        # What a control-class request experiences: the queue wait at its
        # arrival (control is admitted while lower classes shed).
        self.control_queue_ms.append(self.controller.queue_ms())
        response = self.system.network.request(
            "POST",
            "https://alice-store/api/rules/list",
            {"ApiKey": self.owner_key, "Contributor": "alice"},
        )
        if response.status != 200:
            self.control_failures.append(response.status)

    def run(self, rate_x, duration_ms):
        """Offered load ``rate_x × CAPACITY_QPS`` for ``duration_ms``."""
        per_ms = rate_x * CAPACITY_QPS / 1000.0
        credit = 0.0
        for ms in range(duration_ms):
            self.system.clock.advance(1)
            if ms % CONTROL_PROBE_MS == 0:
                self._control_probe()
            credit += per_ms
            while credit >= 1.0:
                credit -= 1.0
                self._query()
        return self

    def goodput_qps(self, duration_ms):
        return self.served / (duration_ms / 1000.0)


def _p99(samples):
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


def run_load(mode, rate_x, duration_ms):
    system, key = build_twin(mode)
    driver = LoadDriver(system, key).run(rate_x, duration_ms)
    controller = driver.controller
    result = {
        "mode": mode,
        "rate_x": rate_x,
        "offered": driver.offered,
        "served": driver.served,
        "late": driver.late,
        "shed": driver.shed,
        "goodput_qps": driver.goodput_qps(duration_ms),
        "p99_control_queue_ms": _p99(driver.control_queue_ms),
        "control_failures": driver.control_failures,
        "end_queue_ms": controller.queue_ms(),
        "violations": driver.violations,
        "system": system,
        "key": key,
    }
    return result


def run_recovery(result, duration_ms):
    """Drain the post-burst backlog, then measure 1× goodput again."""
    system, key = result["system"], result["key"]
    controller = system.stores["alice-store"].admission
    drained_ms = 0
    while controller.queue_ms() > 0 and drained_ms < 120_000:
        system.clock.advance(CONTROL_PROBE_MS)
        drained_ms += CONTROL_PROBE_MS
    after = LoadDriver(system, key).run(1, duration_ms)
    return {
        "mode": result["mode"],
        "drain_ms": drained_ms,
        "goodput_qps_after": after.goodput_qps(duration_ms),
    }


def run_sweep(rates, duration_ms):
    runs = [run_load(mode, x, duration_ms) for mode in ("enforce", "observe")
            for x in rates]
    peak = max(rates)
    recovery = [
        run_recovery(next(r for r in runs if r["mode"] == mode and r["rate_x"] == peak),
                     duration_ms)
        for mode in ("enforce", "observe")
    ]
    return runs, recovery


def _by(runs, mode, rate_x):
    return next(r for r in runs if r["mode"] == mode and r["rate_x"] == rate_x)


def check_gates(runs, recovery, rates):
    """The acceptance gates; returns a list of failure strings."""
    failures = []
    baseline = _by(runs, "enforce", 1)["goodput_qps"]
    stressed = _by(runs, "enforce", max(r for r in rates if r >= 5))
    naive = _by(runs, "observe", stressed["rate_x"])
    if stressed["goodput_qps"] < 0.8 * baseline:
        failures.append(
            f"protected goodput at {stressed['rate_x']}x is "
            f"{stressed['goodput_qps']:.0f}/s < 80% of peak {baseline:.0f}/s"
        )
    if naive["goodput_qps"] >= 0.5 * stressed["goodput_qps"]:
        failures.append(
            f"unprotected twin did not collapse: {naive['goodput_qps']:.0f}/s "
            f"vs protected {stressed['goodput_qps']:.0f}/s"
        )
    for r in runs:
        if r["violations"]:
            failures.append(
                f"{r['mode']}@{r['rate_x']}x privacy violations: {r['violations'][:3]}"
            )
    for r in runs:
        if r["mode"] == "enforce" and r["control_failures"]:
            failures.append(
                f"{len(r['control_failures'])} control probes at {r['rate_x']}x "
                f"did not answer 200: {sorted(set(r['control_failures']))}"
            )
        if r["mode"] == "enforce" and r["p99_control_queue_ms"] > 600:
            failures.append(
                f"control-plane p99 queue {r['p99_control_queue_ms']:.0f}ms "
                f"at {r['rate_x']}x exceeds 600ms"
            )
    protected_rec = next(r for r in recovery if r["mode"] == "enforce")
    if protected_rec["drain_ms"] > 2_000:
        failures.append(
            f"protected backlog took {protected_rec['drain_ms']}ms to drain"
        )
    if protected_rec["goodput_qps_after"] < 0.8 * baseline:
        failures.append(
            f"post-burst goodput {protected_rec['goodput_qps_after']:.0f}/s "
            f"never recovered to baseline {baseline:.0f}/s"
        )
    return failures


def load_rows(runs):
    return [
        [
            r["mode"], f"{r['rate_x']}x", str(r["offered"]),
            str(r["served"] + r["late"]), f"{r['goodput_qps']:.0f}",
            str(r["late"]), str(r["shed"]),
            f"{r['p99_control_queue_ms']:.0f}", f"{r['end_queue_ms']:.0f}",
            str(len(r["violations"])),
        ]
        for r in runs
    ]


def recovery_rows(recovery, baseline):
    return [
        [r["mode"], str(r["drain_ms"]), f"{r['goodput_qps_after']:.0f}",
         f"{baseline:.0f}"]
        for r in recovery
    ]


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------

def test_c16_goodput_holds_at_5x_and_naive_twin_collapses():
    runs, recovery = run_sweep(SMOKE_RATES, SMOKE_DURATION_MS)
    failures = check_gates(runs, recovery, SMOKE_RATES)
    assert failures == []
    report_table(
        "C16 — Goodput vs offered load",
        LOAD_HEADERS,
        load_rows(runs),
        notes="protected >= 80% of peak at 5x; unprotected collapses",
    )
    baseline = _by(runs, "enforce", 1)["goodput_qps"]
    report_table(
        "C16 — Recovery after the burst",
        RECOVERY_HEADERS,
        recovery_rows(recovery, baseline),
    )
    emit_obs_snapshot(
        "c16-protected-5x", _by(runs, "enforce", max(SMOKE_RATES))["system"]
    )


def test_c16_sheds_are_typed_and_carry_no_data():
    run = run_load("enforce", 10, 500)
    assert run["violations"] == []
    assert run["shed"] > 0  # 10x really does shed


def test_c16_bounded_backlog_is_the_mechanism():
    protected = run_load("enforce", 5, 1_000)
    naive = run_load("observe", 5, 1_000)
    # The enforced queue is capped near the largest class budget; the
    # observed queue owes everything it admitted.
    assert protected["end_queue_ms"] <= 1_100
    assert naive["end_queue_ms"] > 2_000


def main(argv) -> int:
    """CI smoke mode: short sweep, hard gates, no repeats."""
    smoke = "--smoke" in argv
    if not smoke and "--full" not in argv:
        print(__doc__)
        return 2
    rates = SMOKE_RATES if smoke else RATES
    duration = SMOKE_DURATION_MS if smoke else DURATION_MS
    runs, recovery = run_sweep(rates, duration)
    baseline = _by(runs, "enforce", 1)["goodput_qps"]
    print("C16 — Goodput vs offered load (simulated clock)")
    print(format_table(LOAD_HEADERS, load_rows(runs)))
    print("\nC16 — Recovery after the burst")
    print(format_table(RECOVERY_HEADERS, recovery_rows(recovery, baseline)))
    out = os.environ.get(
        "SENSORSAFE_METRICS_OUT",
        os.path.join("artifacts", "obs-metrics-snapshot.json"),
    )
    parent = os.path.dirname(out)
    if parent:
        os.makedirs(parent, exist_ok=True)
    snapshot = _by(runs, "enforce", max(rates))["system"].obs.metrics.snapshot()
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"c16-protected-peak": snapshot}, handle, indent=2, sort_keys=True)
    print(f"\nmetrics snapshot written to {out}")
    failures = check_gates(runs, recovery, rates)
    for failure in failures:
        print(f"C16 SMOKE FAILED: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
