"""Host-speed calibration: a fixed piece of exact arithmetic, independent of loophh.

The machine the benchmark runs on is a share of a host whose speed drifts by
tens of percent over minutes, which moves every raw time alike.  A worker
therefore runs calibration bursts between its operations and scales each
stretch of operations by how fast the calibration ran around it (see
``Meter``).  The calibration unit is row elimination over ``Fraction`` on
small sparse dict-of-rows matrices, the same kind of interpreter work
(bytecode, small-object allocation, ``gcd``) that loophh's own elimination
does.  It never calls loophh, so a change to loophh cannot move it.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# Wall and CPU seconds of one unit at the reference speed: about the median of
# 400 units on a 2-CPU Intel Xeon VM with Python 3.11.7.  Scaled times read
# as seconds on that machine at that speed.
UNIT_REF_WALL_S = 0.0140
UNIT_REF_CPU_S = 0.0140

STRETCH_S = 0.5  # operation time after which a burst ends the stretch
SHARE = 0.15     # a burst lasts this share of the stretch before it ...
MIN_S = 0.1      # ... and at least this many seconds

_MATRICES = None


def _matrices():
    """A fixed set of small sparse matrices, as lists of {col: value} rows."""
    global _MATRICES
    if _MATRICES is None:
        rng = random.Random(20170818)
        _MATRICES = []
        for _ in range(6):
            n = rng.randint(10, 16)
            _MATRICES.append([{c: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5))
                               for c in range(n) if rng.random() < 0.45}
                              for _ in range(n + 2)])
    return _MATRICES


def unit() -> int:
    """One calibration unit; returns the summed ranks, so the work is used."""
    total = 0
    for m in _matrices():
        rows = [dict(r) for r in m if r]
        while rows:
            prow = rows.pop()
            pc = min(prow)
            inv = 1 / prow[pc]
            total += 1
            reduced = []
            for row in rows:
                f = row.get(pc)
                if f is not None:
                    f *= inv
                    row = {c: v for c in row.keys() | prow.keys()
                           if (v := row.get(c, 0) - f * prow.get(c, 0))}
                if row:
                    reduced.append(row)
            rows = reduced
    return total


def speed() -> float:
    """Host speed now: reference over measured wall time per unit."""
    n, wall, _ = Meter().burst(MIN_S)
    return UNIT_REF_WALL_S * n / wall


class Meter:
    """Scales stretches of operations to the reference speed.

    Call ``start`` before the first operation, ``add`` with each operation's
    wall and CPU time after it, and ``close`` after the last.  ``add`` ends
    the current stretch with a burst once it has reached ``STRETCH_S``
    seconds.  A stretch's wall and CPU times are scaled by the speed of the
    bursts on either side of it:
    ``scaled = raw * reference time per unit / measured time per unit``.  A
    burst lasts ``SHARE`` of the stretch before it, and at least ``MIN_S``.
    """

    def __init__(self):
        self.wall_s = self.cpu_s = 0.0          # raw totals
        self.wall_ref_s = self.cpu_ref_s = 0.0  # scaled totals
        self.calib_s = 0.0                      # wall time spent in bursts
        self._stretch = [0.0, 0.0]
        self._before = None
        unit()  # warm-up, untimed

    def burst(self, seconds):
        """Runs units for at least `seconds`; returns (units, wall, cpu)."""
        n, w0, c0 = 0, time.perf_counter(), time.process_time()
        while True:
            unit()
            n += 1
            wall = time.perf_counter() - w0
            if wall >= seconds:
                break
        cpu = time.process_time() - c0
        self.calib_s += wall
        return n, wall, cpu

    def start(self):
        self._before = self.burst(MIN_S)

    def add(self, wall, cpu):
        self._stretch[0] += wall
        self._stretch[1] += cpu
        if self._stretch[0] >= STRETCH_S:
            self._close_stretch()

    def close(self):
        if self._stretch[0] > 0:
            self._close_stretch()

    def _close_stretch(self):
        wall, cpu = self._stretch
        after = self.burst(max(MIN_S, SHARE * wall))
        n = self._before[0] + after[0]
        unit_wall = (self._before[1] + after[1]) / n
        unit_cpu = (self._before[2] + after[2]) / n
        self.wall_s += wall
        self.cpu_s += cpu
        self.wall_ref_s += wall * UNIT_REF_WALL_S / unit_wall
        self.cpu_ref_s += cpu * UNIT_REF_CPU_S / unit_cpu
        self._stretch = [0.0, 0.0]
        self._before = after
