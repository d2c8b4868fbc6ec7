"""Speed probe: samples how fast the machine runs while a worker runs.

On a shared VM the speed of a vCPU changes by up to a factor of two, within
tens of milliseconds and over minutes, and the two vCPUs change
independently (see README.md).  A probe started in the worker process runs a
fixed calibration kernel from a SIGALRM handler every ``INTERVAL_S`` of wall
time, so the samples come from the same vCPU at the same moments as the
program's own work.  run.py subtracts the kernel time from the pass time and
scales the rest by ``REF_KERNEL_S`` over the mean kernel time.

The kernel does not touch ``nevlab``, so a change to the program cannot change
the scale.  The cyclic garbage collector is off while the kernel runs, so that
the objects the program keeps alive do not add collection time to it.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.04
# Mean kernel time over a run in a fast period on the 2-vCPU Intel Xeon VM
# where the benchmark was built (Python 3.11.7; slow periods gave up to
# 0.0015).  It only sets the unit of the scaled times.
REF_KERNEL_S = 0.0012


def kernel() -> Fraction:
    """Fixed pure-Python work: small Fraction products summed into a growing
    denominator, the same kind of integer arithmetic as the program's Q(i)
    polynomials."""
    s = Fraction(0)
    for i in range(1, 160):
        s += Fraction(i % 7 + 1, i) * Fraction(3, i % 5 + 2)
    return s


class SpeedProbe:
    """Runs ``kernel`` every ``INTERVAL_S`` between ``start`` and ``stop``."""

    def __init__(self):
        self.samples = 0
        self.kernel_s = 0.0

    def _sample(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        kernel()
        self.kernel_s += time.perf_counter() - start
        self.samples += 1
        if collecting:
            gc.enable()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> dict:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return {"samples": self.samples, "kernel_s": self.kernel_s}
