"""Host-speed reference kernel for normalizing times on a shared machine.

On a host shared with other tenants, the throughput of one core drifts by
tens of percent over seconds to minutes, and it moves a fixed SciPy sparse
LU and the enzlab ops together: on the 2-core Xeon this benchmark was
written on, interleaving ``aux_refine``-style ops with this kernel for 80 s
gave a correlation of 0.87 between their times, and the quartile spread of
op times fell from 32 % to 9 % once divided by the kernel time.

A run times the kernel between ops (never inside an op or a span) and
scales an op time by ``REF_S`` over the median of the kernel samples nearest
to it in time, a set-up time by ``REF_S`` over the median of all samples:
seconds on a host where the kernel takes ``REF_S``.  The kernel uses only
NumPy and SciPy, so no change to enzlab can move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

GRID = 120          # 14,400-unknown complex 2D Helmholtz-like grid operator
REF_S = 0.1         # kernel time that defines a normalized second
EVERY_S = 1.0       # least time between two kernel samples
NEAREST = 3         # samples that set the factor at one moment


class HostSpeed:
    def __init__(self):
        n = GRID
        tri = sp.diags_array([np.full(n - 1, -1.0), np.full(n, 4.0),
                              np.full(n - 1, -1.0)], offsets=[-1, 0, 1])
        off = sp.diags_array([np.full(n - 1, -1.0), np.full(n - 1, -1.0)],
                             offsets=[-1, 1])
        lap = sp.kron(sp.eye_array(n), tri) + sp.kron(off, sp.eye_array(n))
        self._a = (lap + 0.5j * sp.eye_array(n * n)).astype(complex).tocsc()
        self._b = np.ones(n * n, dtype=complex)
        self.samples = []          # (midpoint, kernel seconds)
        self._last = -np.inf

    def sample(self) -> None:
        t0 = time.perf_counter()
        spla.splu(self._a).solve(self._b)
        self._last = time.perf_counter()
        self.samples.append((0.5 * (t0 + self._last), self._last - t0))

    def sample_if_due(self) -> None:
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def factor(self, at: float | None = None) -> float:
        """Multiply a time measured around ``at`` by this for normalized seconds.

        Without ``at``, the factor of the whole run.
        """
        if at is None:
            near = self.samples
        else:
            near = sorted(self.samples, key=lambda s: abs(s[0] - at))[:NEAREST]
        return REF_S / statistics.median(dt for _, dt in near)
