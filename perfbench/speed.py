"""CPU speed reference for the benchmark's timed samples.

The benchmark runs on virtual CPUs whose speed swings by 1.5x or more,
from one 20 ms slice to the next and over minutes, with the load of
whatever shares the physical cores. A sample's wall time follows those
swings; the program's cost does not. To separate the two, a sample
times a fixed reference unit (small-array numpy arithmetic driven from
Python, the same mix as the quad and protocol loops) on the program's
own thread, interleaved with it: a SIGALRM handler runs one unit every
INTERVAL_S of wall time, so the reference sees the same core at the
same moments as the program. The units sample the speed uniformly in
wall time, so their harmonic mean duration is the inverse of the mean
speed over the run (the median would miss slow stretches shorter than
half the run), and

    run_ref_s = run_s * REF_UNIT_S / harmonic mean unit time

is the run time scaled to a core that runs one unit in REF_UNIT_S.
run_s excludes the time spent in the handler (handler_s). The
reference is the benchmark's own code, so no change to quadswarm
moves it.
"""

import signal
import time

import numpy as np

INTERVAL_S = 0.025
ITERATIONS = 25
# Typical time of one unit on the 2-vCPU Intel Xeon virtual machine the
# benchmark was calibrated on (Python 3.11, numpy 2.4). It is only a
# scale, chosen so that run_ref_s reads as seconds on that machine.
REF_UNIT_S = 0.0008

_START = np.arange(12.0)


def reference_unit():
    """Fixed work: a few dozen small-array numpy operations."""
    a = _START.copy()
    b = _START[:3]
    for _ in range(ITERATIONS):
        a = a * 0.999 + 0.001
        c = np.cross(b, a[3:6])
        b = c / (np.linalg.norm(c) + 1.0)
    return b


class SpeedSampler:
    """Times reference units during a block; see the module docstring."""

    def __init__(self):
        self.units = []
        self.handler_s = 0.0

    def _unit(self):
        start = time.perf_counter()
        reference_unit()
        self.units.append(time.perf_counter() - start)
        return self.units[-1]

    def _on_alarm(self, *_):
        self.handler_s += self._unit()

    def __enter__(self):
        self._unit()    # so that even an instant run has a speed
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def unit_s(self):
        """Harmonic mean time of one reference unit."""
        return len(self.units) / sum(1.0 / d for d in self.units)
