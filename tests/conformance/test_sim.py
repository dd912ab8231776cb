"""The fleet simulator is the guard for replication, failover and restart.

One sweep of :data:`repro.conformance.sim.SCHEDULES` seeded schedules
holds invariants 1, 2, 4 and 8 after every step (under the autouse
broker tap, too) and hits every composition the hand-written scenarios
of ``tests/chaos/test_replication_chaos.py`` run on purpose.  Each
``regressions/sim-*.json`` is a shrunk failing schedule: its ``Found``
names the commit or the mutation it broke an invariant at, and it
replays clean here.
"""

import json
from pathlib import Path

import pytest

from repro.conformance import sim

STORED = sorted((Path(__file__).parent / "regressions").glob("sim-*.json"))


def test_the_sweep_holds_every_invariant_and_covers_every_chaos_composition(tmp_path):
    report = sim.sweep(0, str(tmp_path))
    assert "Schedule" not in report, json.dumps(report, indent=1)
    assert [row for row in sim.COVERAGE if not report["Coverage"].get(row)] == []


@pytest.mark.parametrize("path", STORED, ids=lambda path: path.stem)
def test_a_stored_schedule_replays_clean(path, tmp_path):
    schedule = json.loads(path.read_text(encoding="utf-8"))["Schedule"]
    assert sim.run_schedule(schedule, str(tmp_path))["Violations"] == []
