"""Machine-speed calibration for timings taken on a shared host.

On a host shared with other tenants the speed of one core drifts by 20–40 %
over seconds to minutes, which swamps the differences a benchmark is meant
to show.  The runner times a fixed reference kernel (interpreted Python
plus small numpy operations, the same mix lorhol runs) before every
measured operation.  Each operation's time is then scaled by
``REFERENCE_S / m``, where ``m`` is the median kernel time over the
samples taken around it: the result is seconds on a machine on which the
kernel takes ``REFERENCE_S``.  The kernel runs no lorhol code, so the
scale cannot move with a change to the program.
"""
from __future__ import annotations

import statistics
from time import perf_counter

REFERENCE_S = 0.010
HALF_WINDOW = 3  # samples on each side of an operation


def kernel() -> float:
    import numpy as np

    a = np.linspace(0.5, 1.5, 320).reshape(20, 4, 4)
    total = 0.0
    for i in range(45000):
        total += i * i % 7
    for _ in range(450):
        total += float(np.einsum("nab,nbc->nac", a, a)[0, 0, 0])
    return total


def sample() -> float:
    """Seconds one run of the reference kernel takes now."""
    start = perf_counter()
    kernel()
    return perf_counter() - start


def to_reference(times: list[float], samples: list[float]) -> list[float]:
    """Scale ``times[i]`` by the median of the kernel samples within
    HALF_WINDOW of ``samples[i]``, the sample taken just before it."""
    out = []
    for i, t in enumerate(times):
        near = samples[max(0, i - HALF_WINDOW):i + HALF_WINDOW + 1]
        out.append(t * REFERENCE_S / statistics.median(near))
    return out
