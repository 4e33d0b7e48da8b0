"""Calibration of the machine's momentary speed.

On a shared machine the same pass can take 1.4 s in one minute and 2.6 s
in the next, because other tenants take the CPU; process CPU time moves the
same way, so it does not help.  So a short fixed *probe* is timed next to
every operation, and a calibrated time is the measured time scaled by
``REFERENCE_S / probe time``: the time the operation would take on a
machine where the probe takes ``REFERENCE_S`` (its time on the reference
machine of README.md in an uncontended minute, so the scale is about 1 there).

The probe is a fixed piece of pure-Python dict, tuple, float and list work,
like the program's own interpreter-bound mix.  It imports nothing, so it can
run before the set-up it calibrates.  A cold ``python -c pass`` was tried as
the probe for cold CLI processes and left the ``cli`` figures more spread
than this kernel did.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

REFERENCE_S = 0.003  # the kernel on the reference machine in an uncontended minute


def kernel() -> float:
    """Run the fixed calibration work once; returns its seconds."""
    t0 = perf_counter()
    table: dict = {}
    for i in range(9000):
        key = (i % 7, i % 11, i % 13)
        table[key] = table.get(key, 0.0) + math.sqrt(i + 1.0)
    rows = sorted(((v, k) for k, v in table.items()), reverse=True)
    acc = sum(v * (k[0] + 1) for v, k in rows[:200])
    if not math.isfinite(acc):
        raise ArithmeticError("calibration kernel went wrong")
    return perf_counter() - t0


def scale(samples) -> float:
    """Factor from measured to calibrated time, from nearby kernel timings.

    The median keeps one interrupted kernel run from moving it.
    """
    return REFERENCE_S / statistics.median(samples)


class bracket:
    """``with bracket() as b:`` times a block with kernel runs on both sides;
    then ``b.wall`` is its measured and ``b.calibrated`` its calibrated
    duration."""

    def __init__(self, k: int = 3):
        self.k = k

    def __enter__(self):
        self.samples = [kernel() for _ in range(self.k)]
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = perf_counter() - self.t0
        self.samples += [kernel() for _ in range(self.k)]
        self.calibrated = self.wall * scale(self.samples)
        return False
