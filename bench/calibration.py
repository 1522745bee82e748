"""Calibration kernels: fixed work that does not touch qseclab.

The benchmark times every operation between two runs of a kernel and scales
the operation's CPU time by ``nominal / mean(kernel times)``.  On a shared
virtual machine the host slows this guest's CPUs by 1.5-2x for seconds to
minutes at a time; the kernels slow down with the operations, so the scaled
times stay put.  Each nominal time is the kernel's CPU time on the reference
box (2-core VM, Python 3.11.7, numpy 2.4.6, scipy 1.17.1, OpenBLAS on one
thread) when the host runs it at full speed, so there scaled time equals CPU
time at full speed.

Code slows down by different amounts: in a 120 s test that alternated
operations with kernels, the slow-to-fast ratio was 1.62 for a search
operation, 1.61 for ``scalar_search`` and 1.45 for ``eigensolves``; 1.54 and
1.63 for two sweep operations (1.58, 1.73 and 1.47, 1.64); 1.35 to 1.42 for
report operations (1.47 to 1.69 and 1.37 to 1.58).  So each workload names
the kernel that slows down as its operations do (``workloads.CALIBRATION``).
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import minimize_scalar

_rng = np.random.default_rng(20111109)
_m = _rng.standard_normal((6, 6)) + 1j * _rng.standard_normal((6, 6))
_HERMITIAN = _m + _m.conj().T
_FRAME = _rng.standard_normal((4, 2)) + 1j * _rng.standard_normal((4, 2))
_STATES = np.stack([np.eye(2, dtype=np.complex128) / 2] * 4)


def eigensolves() -> None:
    """Interpreter work around 100 small Hermitian eigensolves."""
    total = 0.0
    for i in range(100):
        total += float(np.abs(np.linalg.eigvalsh(_HERMITIAN + i * np.eye(6))).sum())
        total += sum(j * 0.5 for j in range(20))


def scalar_search() -> None:
    """Bounded scalar minimizations of a small einsum/log objective."""
    def objective(theta):
        frame = _FRAME * np.cos(theta)
        table = np.einsum("ya,kab,yb->ky", frame, _STATES, frame.conj()).real
        positive = table > 0.0
        return -float((table[positive] * np.log2(table[positive] + 1.0)).sum()) + (theta - 0.3) ** 2

    for _ in range(8):
        minimize_scalar(objective, bounds=(-1.5, 1.5), method="bounded",
                        options={"xatol": 1e-6, "maxiter": 30})


# (kernel, nominal CPU seconds): the 5th percentile of 13 000 runs of each
KERNELS = {"eigensolves": (eigensolves, 1.4e-3), "scalar_search": (scalar_search, 1.1e-3)}


def calibrate(kernel: str) -> float:
    """CPU seconds of one run of the named kernel."""
    fn, _ = KERNELS[kernel]
    start = time.process_time()
    fn()
    return time.process_time() - start


def speed_scale(kernel: str, seconds: float) -> float:
    """Factor that turns CPU time measured now into CPU time at full speed."""
    return KERNELS[kernel][1] / seconds
