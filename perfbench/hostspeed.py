"""Host speed from a fixed pure-Python calibration kernel.

On a shared host the same job can take 1.8 times as long in one minute as
in the next, and the kernel below slows by the same factor.  It does exact
rational arithmetic with the standard library only and shares no code with
symheat, so no change to the program can move it.  Dividing a measured
time by `factor(sample())` taken around it gives seconds at the reference
host speed.
"""
from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Kernel seconds on the reference host: a 2-core x86 VM, Python 3.11.7,
# in its fast phase.
REFERENCE_S = 0.040
_N = 6


def kernel() -> Fraction:
    """A fixed amount of Fraction matrix arithmetic with bounded sizes."""
    m = [[Fraction(i + 1, j + 2) for j in range(_N)] for i in range(_N)]
    acc = [[Fraction(0)] * _N for _ in range(_N)]
    for rep in range(60):
        acc = [[sum((m[i][k] * acc[k][j] for k in range(_N)), Fraction(rep % 5, 7))
                for j in range(_N)] for i in range(_N)]
        acc = [[Fraction(x.numerator % 1000003, x.denominator % 999983 + 1) for x in row]
               for row in acc]
    return acc[0][0]


def sample(reps: int = 3) -> float:
    """Median kernel seconds over `reps` runs."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def factor(sample_s: float) -> float:
    """How much slower than the reference the host ran for this sample."""
    return sample_s / REFERENCE_S
