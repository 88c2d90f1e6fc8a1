"""Machine-speed calibration for the end-to-end times.

On a shared machine the same single-threaded work can take twice as long
from one minute to the next, and the speed changes within seconds. The
process is rarely descheduled; other tenants contend for the cores' caches
and execution units, so code simply runs slower, and interpreted code
slows by a different share than large numpy kernels. To see through that,
a `SpeedProbe` interrupts the timed operation every PROBE_INTERVAL_S with
a timer signal and runs a fixed probe of about a millisecond in two parts:
interpreted Python with small numpy calls, and a conv-shaped einsum plus a
pass over a 1.6 MB array. The slowdown the operation ran under is the
geometric mean, over all probes and both parts, of each part's duration
over its PROBE_REFERENCE_S; the operation's calibrated time is its wall
time divided by that slowdown, which is its wall time at the speed the
machine had when the reference was measured.

The probes cost about 3% of the operation's wall time. Raw wall times
are reported alongside the calibrated ones.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

PROBE_INTERVAL_S = 0.04
# The two parts' durations on an otherwise idle 2-core Xeon (Sapphire
# Rapids, KVM guest) with numpy 2.4 and one BLAS thread. Fixed: changing
# them rescales every calibrated time.
PROBE_REFERENCE_S = (0.0004, 0.00065)

_rng = np.random.default_rng(1)
_MATRIX = _rng.random((16, 16))
_SEQ_IN = _rng.random((4, 100, 100))
_SEQ_OUT = _rng.random((4, 100, 32))
_BLOCK = _rng.random(200_000)


def probe() -> tuple[float, float]:
    """Run the fixed probe once; return the wall time of each part."""
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(3000):
        key = i % 97
        counts[key] = counts.get(key, 0) + 1
    h = np.zeros((4, 16))
    for _ in range(60):
        h = np.tanh(h @ _MATRIX * 0.1 + 1.0)
    t1 = time.perf_counter()
    np.einsum("blf,blk->fk", _SEQ_IN, _SEQ_OUT)
    (_BLOCK * 1.0001).sum()
    return t1 - t0, time.perf_counter() - t1


class SpeedProbe:
    """Samples the machine's speed while its ``with`` block runs.

    Only for the main thread of a process that uses no other SIGALRM
    handler or real-time interval timer.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _on_alarm(self, _signum, _frame) -> None:
        self.samples.append(probe())

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # the block was shorter than one interval
            self.samples.append(probe())
        return False

    def slowdown(self) -> float:
        """How many times slower than at reference the block ran."""
        logs = [
            math.log(part / ref)
            for sample in self.samples
            for part, ref in zip(sample, PROBE_REFERENCE_S)
        ]
        return math.exp(sum(logs) / len(logs))
