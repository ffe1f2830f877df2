"""A fixed reference kernel that measures the CPU's speed of the moment.

On a shared virtual machine the CPU's speed changes for seconds at a time.
On the 2-vCPU Xeon VM this benchmark was written on, a fixed loop took
0.095 s in quiet phases and 0.13-0.15 s in busy ones, and raw medians of
runs made minutes apart spread by 15-30 %.  So the benchmark runs this
kernel next to every timed report and scales the report's time by
``NOMINAL_S / kernel time``: the result is the time the report would take
on a CPU on which the kernel takes ``NOMINAL_S``.  The kernel mixes BLAS
calls (complex products, an eigendecomposition and an SVD) with many small
numpy calls, as the workloads do.  It never calls vacuumcorr, so no change
to the program can move it.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.005

_rng = np.random.default_rng(2024)
_M = _rng.standard_normal((96, 96)) + 1j * _rng.standard_normal((96, 96))
_H = _M[:48, :48] + _M[:48, :48].conj().T
_S = _M[:4, :4].copy()


def kernel_seconds() -> float:
    """Time one run of the reference kernel."""
    t0 = time.perf_counter()
    for _ in range(3):
        _M @ _M
    np.linalg.eigh(_H)
    np.linalg.norm(_M, 2)
    for _ in range(60):
        np.linalg.norm(_S, 2)
    return time.perf_counter() - t0


def normalized(latencies: list[float], kernel_s: list[float]) -> list[float]:
    """Scale each latency by the kernel's speed around it: ``kernel_s`` has
    one entry before each latency and one after the last."""
    return [lat * 2 * NOMINAL_S / (before + after)
            for lat, before, after in zip(latencies, kernel_s, kernel_s[1:])]
