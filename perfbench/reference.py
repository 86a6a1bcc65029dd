"""A fixed reference kernel that measures how fast this machine runs now.

On a shared host the speed of a core drifts: on the 2-core VM this
benchmark was built on, the same 12 instances took 1.9 times longer in
one two-second pass than in another a minute later, and a ten-seed set of
runs spread its median solve time from 0.11 s to 0.21 s. The drift comes
from the machine, not from the program, so the benchmark times this kernel
next to the program and reports each time at the kernel's reference
speed: wall seconds times REFERENCE_S over the kernel's seconds measured
at about the same moment.

The kernel mixes what the solver spends its time on: an interpreted
integer loop (as in exhaustive separation), sorting, dict updates and
Fraction arithmetic (as in list scheduling and guessing), and small
HiGHS solves through scipy's linprog (as in every LP). It uses nothing
from prec_sched, so no change to the program can change it.
"""

from __future__ import annotations

import gc
import random
import statistics
from fractions import Fraction
from time import perf_counter

# The kernel's median seconds on the machine the benchmark was built on,
# fixed for good: reported times are seconds at that speed.
REFERENCE_S = 0.0165

_rng = random.Random(5)
_floats = [_rng.random() for _ in range(3000)]
_fractions = [Fraction(_rng.randint(1, 99), _rng.randint(1, 99)) for _ in range(300)]
_lp = None


def _kernel() -> None:
    global _lp
    if _lp is None:
        # numpy loads on first use, after run.py has pinned its thread pools
        import numpy as np
        from scipy.optimize import linprog

        c = np.arange(1, 21, dtype=float)
        _lp = (linprog, c, -np.ones((1, 20)), np.array([-5.0]))
    total = 0
    for i in range(60000):
        total += i * i % 7
    buckets: dict[int, float] = {}
    for k, x in enumerate(sorted(_floats)):
        buckets[k % 97] = buckets.get(k % 97, 0.0) + x
    acc = Fraction(0)
    for f in _fractions:
        acc += f * f
    linprog, c, a_ub, b_ub = _lp
    for _ in range(3):
        linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, 1), method="highs")


def sample() -> float:
    """Seconds one run of the kernel takes now, with the garbage collector
    off so that it does not time the program's garbage."""
    gc.disable()
    try:
        t = perf_counter()
        _kernel()
        return perf_counter() - t
    finally:
        gc.enable()


def speed(samples: list[float]) -> float:
    """Machine speed relative to the reference: above 1 is faster."""
    return REFERENCE_S / statistics.median(samples)


def rescale(times: list[float], samples: list[float], reach: int = 3) -> list[float]:
    """times[i] at the reference speed, using the kernel samples taken
    right after each of calls i - reach .. i + reach."""
    out = []
    for i, t in enumerate(times):
        near = samples[max(0, i - reach): i + reach + 1]
        out.append(t * speed(near))
    return out
