"""Machine-speed correction for a shared machine.

Other tenants slow every process on the machine, by up to half and for
minutes at a time, and no counter shows it (there is no steal time; the CPU
time of a process grows with its wall time).  A fixed pure-Python reference
loop is timed before and after each stretch of work, and the stretch's
times are multiplied by REFERENCE_S over the mean of the two loop times, so
they read as on a quiet machine.  REFERENCE_S is the loop's quiet time on
the machine of the first recorded numbers (2 vCPU Intel Xeon, Python
3.11.7).  Raw times are reported next to the scaled ones.

The loop has to run next to the work it scales: timed in the parent before
each spawn, it left repeated identical query sessions 18 % apart (standard
deviation over mean); timed inside the worker around the session, 8 %.  So
worker passes use ScaledClock, and only passes that are whole commands are
bracketed from outside.
"""

from __future__ import annotations

import resource
import time

REFERENCE_LOOPS = 1_500_000
REFERENCE_S = 0.115


def reference_loop() -> float:
    """Seconds the fixed reference loop takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    return REFERENCE_S / ((before + after) / 2)


def cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class ScaledClock:
    """Wall and CPU time of a pass, cut into stretches of about
    ``segment_s`` with a reference loop between stretches (the loops
    themselves are not counted)."""

    def __init__(self, segment_s: float = 1.0) -> None:
        self.segment_s = segment_s
        self.wall_s = self.cpu_s = self.scaled_wall_s = 0.0

    def start(self) -> None:
        self._ref = reference_loop()
        self._open()

    def tick(self) -> None:
        if time.perf_counter() - self._t0 >= self.segment_s:
            self._close()
            self._open()

    def stop(self) -> None:
        self._close()

    def _open(self) -> None:
        self._t0 = time.perf_counter()
        self._cpu0 = cpu_s()

    def _close(self) -> None:
        wall = time.perf_counter() - self._t0
        cpu = cpu_s() - self._cpu0
        ref = reference_loop()
        factor = scale(self._ref, ref)
        self._ref = ref
        self.wall_s += wall
        self.cpu_s += cpu
        self.scaled_wall_s += wall * factor

    @property
    def factor(self) -> float:
        """Scaled over raw wall time: the pass's mean speed correction."""
        return self.scaled_wall_s / self.wall_s if self.wall_s else 1.0
