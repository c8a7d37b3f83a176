"""Reference unit: fixed work timed next to each iteration to follow host drift.

The shared host's speed drifts by tens of percent within minutes.  Iteration
time divided by the unit's time around it (``wall_rel``) follows the program's
speed rather than the host's.  The unit calls no vmbsim code, so a change to
the program does not change it, and it allocates far less than any workload,
so it leaves peak RSS alone.
"""

import time

import numpy as np


def reference_unit() -> None:
    """Random normals, ufuncs, an FFT, streaming over an array and a Python loop."""
    x = np.random.default_rng(0).standard_normal(2**20)
    np.fft.rfft(np.sin(x))
    buf = np.full(2**21, 1.5)
    np.multiply(buf, 2.0, out=buf)
    buf.sum()
    total = 0
    for i in range(100000):
        total += i % 7


def reference_time(budget_s: float) -> float:
    """Mean time of ``reference_unit`` over at least two runs of it and ``budget_s``."""
    start = time.perf_counter()
    runs = 0
    while runs < 2 or time.perf_counter() - start < budget_s:
        reference_unit()
        runs += 1
    return (time.perf_counter() - start) / runs
