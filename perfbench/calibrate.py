"""A frozen reference kernel that tracks how fast the machine runs right now.

On a shared machine a core's speed changes by tens of percent, in spells
that last from under a second to minutes, so a timed run can land in a fast
or a slow spell, or in a mix of both.  While operations are timed the
benchmark runs this kernel every ``PROBE_EVERY_S`` between operations, and
scales each operation's time by
``(NOMINAL_S / mean of the kernel times just before and just after it)
** SENSITIVITY``.  The benchmark runs on one CPU (run.py pins it), so the
kernel measures the core the operations run on.  Set-up time is scaled the
same way, by the kernel runs just before and just after set-up.

The kernel is a fixed-step Dormand-Prince loop over the unified quadratic
system written with small NumPy arrays, the same mix of interpreter and
array work as ssflow's integrator.  It is part of the benchmark, not of the
program, so it never changes with the code under test: the scaling damps
machine drift and keeps program speed-ups.  Raw wall times are kept in the
run's record.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

NOMINAL_S = 0.0019  # the kernel's usual time on the machine the bounds were set on
PROBE_EVERY_S = 0.25  # wall time between two probes while operations are timed
# How much of the kernel's relative speed change an operation shows.  The
# least-squares slope of log operation time on log kernel time, over the same
# operations repeated for 3-5 minutes on a shared two-core machine, was 0.53
# (cli_mix), 0.62-0.68 (orbit_ensemble) and 0.68-0.73 (verify_grid).  Of
# 0.5-0.8, 0.7 kept the largest spread of the 30 s medians, tails and
# throughputs of those recordings at or near its lowest on every one.
# For set-up the slope was 0.46-0.58, and 0.7 still cut the spread of the
# median of five set-ups from 0.09-0.13 of its median to 0.03-0.09.
SENSITIVITY = 0.7

_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_A_NP = tuple(np.asarray(row) for row in _A)
_C1, _C2, _C3 = 2.0, 0.816496580927726, 2.857738033247041  # PME m = 2, n = 1, beta = 1/3


def _rhs(y):
    psi, phi = y[0], y[1]
    return np.array([psi * phi, _C1 * phi * phi - _C2 * psi * phi - _C3 * phi + psi + 1.0])


def probe() -> float:
    """Run the kernel once (40 fixed steps); returns its wall time."""
    t0 = time.perf_counter()
    y = np.array([0.01, 0.8246615467370032])
    k = np.empty((7, 2))
    h = 0.02
    for _ in range(40):
        k[0] = _rhs(y)
        for i in range(1, 7):
            k[i] = _rhs(y + h * (k[:i].T @ _A_NP[i]))
        y = y + h * (k[:6].T @ _A_NP[6])
        float(np.linalg.norm(y))
    return time.perf_counter() - t0


class Calibration:
    """Kernel runs interleaved with the timed operations, and the factors they give."""

    def __init__(self):
        self.probes: list[tuple[float, float]] = []  # (start, duration), in time order
        self._last = -float("inf")

    def between_operations(self) -> None:
        """Run the kernel if ``PROBE_EVERY_S`` has passed since it last ran."""
        if time.monotonic() - self._last >= PROBE_EVERY_S:
            self.run_kernel()

    def run_kernel(self) -> None:
        self.probes.append((time.monotonic(), probe()))
        self._last = time.monotonic()

    def factors(self, intervals: list[tuple[float, float]]) -> list[float]:
        """Factor to nominal speed for each operation timed over (start, end), in time.monotonic.

        Each uses the kernel runs just before and just after its operation,
        so a short slow or fast spell scales only the operations inside it.
        """
        times = [t for t, _ in self.probes]
        out = []
        for start, end in intervals:
            before = self.probes[max(bisect.bisect_right(times, start) - 1, 0)][1]
            after = self.probes[min(bisect.bisect_left(times, end), len(times) - 1)][1]
            out.append((NOMINAL_S / (0.5 * (before + after))) ** SENSITIVITY)
        return out
