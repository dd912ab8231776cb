"""Machine-speed probe: takes the neighbours out of wall-clock times.

The reference box is a 2-vCPU microVM on a shared host.  Its speed moves
between 1.1x and 2x of its best for seconds to minutes at a time (measured:
identical one-second blocks of one op spread 0.70-1.23 s; ten raw runs of
one workload spread 20-45%), so a raw ``perf_counter`` time says more about
the neighbours than about the program, and because the slow phases outlast
a run no statistic over one run repairs that.

What does: a **probe** — a burst of JSON round trips of one fixed payload,
about 100 us each — run right before and right after every timed op.  It
slows down with the machine by nearly the same factor as the program's ops
do (over 100 s of a warm query loop the ratio stayed within +-4% while the
raw latency moved +-28%; an integer loop tracked it only half as well).
Every op time is therefore reported as

    seconds * REFERENCE_SECONDS / mean(probe before, probe after)

that is, as the wall-clock time the op would take on a machine on which one
round trip takes exactly :data:`REFERENCE_SECONDS` — which is what it takes
on the reference box when the neighbours are quiet, so calibrated and raw
times agree there.  The probe never touches the program under test, so a
slower program reads slower by the same share; the raw times are recorded
beside the calibrated ones.
"""

from __future__ import annotations

import json
import time

#: The probe time of the machine all calibrated times are expressed on.
REFERENCE_SECONDS = 100e-6

_PAYLOAD = {
    "Segments": [
        {
            "Id": f"seg-{i}",
            "Start": 1297036800000 + i * 1000,
            "Values": [j * 0.5 for j in range(40)],
            "Context": {"Activity": "Walk", "Stress": "NotStressed"},
        }
        for i in range(6)
    ]
}


def probe(burst: int = 3) -> float:
    """Seconds one JSON round trip of the fixed payload takes right now:
    the mean of a short burst, because single round trips jitter."""
    started = time.perf_counter()
    for _ in range(burst):
        json.loads(json.dumps(_PAYLOAD, sort_keys=True, separators=(",", ":")))
    return (time.perf_counter() - started) / burst


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two probes into a
    reference-machine time."""
    return 2 * REFERENCE_SECONDS / (before + after)


class Laps:
    """Calibrated time of a long job, split into laps by its caller.

    A lap is longer than an op, so each lap boundary takes a longer burst.
    """

    BURST = 9

    def __init__(self) -> None:
        self.raw_seconds = 0.0
        self.seconds = 0.0
        self._probe = probe(self.BURST)
        self._started = time.perf_counter()

    def lap(self) -> None:
        """Close the lap that began at the previous call."""
        raw = time.perf_counter() - self._started
        after = probe(self.BURST)
        self.raw_seconds += raw
        self.seconds += raw * scale(self._probe, after)
        self._probe = after
        self._started = time.perf_counter()
