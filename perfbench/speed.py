"""A machine-speed probe sampled while an op runs.

The host's CPU speed drifts by tens of percent over seconds to minutes, so
raw op times from runs made minutes apart disagree by more than many program
changes move them.  ``SpeedProbe`` interrupts the op every ``INTERVAL_S``
(SIGALRM, handled between bytecodes of the main thread) and times a fixed
pure-Python loop.  The loop touches almost no data, so the program's own
cache use moves it little; its mean time over the op says how fast the
machine ran during that op.  ``reference_s`` rescales an op time to a machine
on which one probe takes ``REFERENCE_PROBE_S``.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.2
# a unit, not a target: about the mean probe time on a 2-vCPU Xeon VM at
# 2.1 GHz; changing it rescales every reference-speed metric
REFERENCE_PROBE_S = 0.0012
_ITERATIONS = 15_000


def probe_work() -> int:
    s = 0
    for i in range(_ITERATIONS):
        s += i * i
    return s


class SpeedProbe:
    """Samples ``probe_work`` every INTERVAL_S between ``start`` and ``stop``."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe_work()
        self.samples.append(time.perf_counter() - t0)

    def start(self) -> None:
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> dict:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # an op shorter than INTERVAL_S
            self._sample(None, None)
            probe_s = 0.0
        else:
            probe_s = sum(self.samples)
        return {"probes": len(self.samples), "probe_s": probe_s,
                "probe_mean_s": sum(self.samples) / len(self.samples)}


def reference_s(op_s: float, probe_mean_s: float) -> float:
    """Op seconds rescaled to a machine whose mean probe takes the reference."""
    return op_s * REFERENCE_PROBE_S / probe_mean_s
