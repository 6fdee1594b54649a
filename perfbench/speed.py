"""The speed of the shared machine, measured by a fixed kernel.

The machine the benchmark runs on speeds up and slows down by about 30% in
phases that last from seconds to minutes, whatever the benchmark does (CPU
time tracks wall time, so this is not scheduling).  Raw wall times therefore
spread by 15-25% from run to run.  The benchmark times each operation between
two runs of `kernel_seconds`, a small pure-Python kernel that does not touch
iharazeta, and reports the operation's time at the reference speed, at
which the kernel takes REFERENCE_S:  t * REFERENCE_S / (mean of the two
kernel times).  A change to the program moves t and not the kernel.
"""

from __future__ import annotations

import statistics
from time import perf_counter

REFERENCE_S = 0.02


def kernel_seconds() -> float:
    """Wall time of a fixed mix of interpreter, float and big-integer work,
    the three kinds of work the program's hot paths do."""
    t0 = perf_counter()
    x, f = 0, 0.5
    for i in range(60000):
        x = (x * 31 + i) % 1000003
        f = f * 0.999 + 0.001 * i
    big, mod, y = 3 ** 600, 7 ** 400, 0
    for i in range(2000):
        y = (y + big * (big + i)) % mod
    return perf_counter() - t0


def kernel_median(rounds: int = 5) -> float:
    return statistics.median(kernel_seconds() for _ in range(rounds))


def at_reference(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """seconds, measured between the two kernel timings, at the reference speed."""
    return seconds * 2.0 * REFERENCE_S / (kernel_before + kernel_after)
