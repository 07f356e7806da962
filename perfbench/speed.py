"""Machine speed, measured next to the work it scales.

This benchmark runs on a few cores of a shared host whose speed changes
by up to a factor of two within minutes, for minutes at a time: the same
closed_loop unit took 1.4 s and 2.3 s in one process, and no run length
averages that out.  A fixed kernel that does not touch driftmpc (small
dense solves, a matrix product and scalar Python, the mix a control step
is made of) slows down with the host nearly in step with the program:
over 160 s in which the median step of a closed_loop unit varied
2.1-fold, the median step over the unit's mean kernel time had an
interquartile range of 8 % of its median.

So every end-to-end time is reported at a reference speed: a time t
measured while the kernel took c on average is reported as t * REF_S / c.
REF_S is a fixed constant, about what the kernel takes on the idle
2-vCPU x86-64 host, so the scaled figures read as times on that host.
The kernel runs between operations, never inside a timed one, and its
time is taken out of every wall time.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

REF_S = 2.5e-3
EVERY = 25   # control steps between two runs of the kernel

_rng = np.random.default_rng(12345)
_M = _rng.standard_normal((38, 38))
_H = _M @ _M.T + 38.0 * np.eye(38)
_G = _rng.standard_normal(38)
_A = _rng.standard_normal((8, 8))


def kernel_s() -> float:
    """Seconds the fixed kernel takes now."""
    t0 = perf_counter()
    s = 0.0
    for _ in range(100):
        x = np.linalg.solve(_H, _G)
        s += float((_H @ x)[0]) + float(np.sum(_A @ _A))
        for j in range(30):
            s += (j * 0.5) ** 2
    return perf_counter() - t0


def factor(kernel_times: list[float]) -> float:
    """Multiplier that takes a time measured alongside `kernel_times` to
    the reference speed."""
    return REF_S * len(kernel_times) / sum(kernel_times)
