"""Host speed, measured by a fixed reference kernel, and times scaled by it.

The 2-CPU VM this benchmark was built on changes speed by up to half over
periods of seconds to minutes, CPU time tracking wall time, so a run cannot
average the phases out.  The benchmark therefore samples a fixed reference
kernel every second of a pass, outside the timed steps, and scales each
wall time by how much slower than nominal the kernel ran around it:

    scaled = wall * NOMINAL_MS / kernel_ms

The kernel is a sparse LU factorization and solve of a 3600-unknown grid
Laplacian, a working set of a few MB like the program's.  Of the kernels
compared on that VM (README.md) it followed the program's slow phases
closest.  It belongs to the benchmark, not the program, so a change to the
program never moves it.  NOMINAL_MS is the kernel's time in a fast phase of
that VM, so a scaled time reads as the wall time there.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

NOMINAL_MS = 10.0     # kernel time in a fast phase of the baseline VM
EVERY_S = 1.0         # sampling period inside a pass
WINDOW_S = 1.5        # samples within this distance of a time are pooled


class Kernel:
    """The reference work; one call takes about NOMINAL_MS on the baseline VM."""

    def __init__(self):
        n = 60
        lap1 = sp.diags([2.0 * np.ones(n), -np.ones(n - 1), -np.ones(n - 1)], [0, 1, -1])
        eye = sp.identity(n)
        self.lap = (sp.kron(lap1, eye) + sp.kron(eye, lap1)).tocsc()
        self.rhs = np.ones(n * n)

    def __call__(self) -> float:
        return float(splu(self.lap).solve(self.rhs)[0])

    def sample_ms(self) -> float:
        """Best of two timed calls, in ms."""
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            self()
            best = min(best, time.perf_counter() - t0)
        return best * 1e3


class Probe:
    """Kernel samples of one pass, taken at most every EVERY_S seconds."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.times: list[float] = []
        self.ms: list[float] = []
        self.spent = 0.0          # seconds spent sampling

    def sample(self) -> None:
        t0 = time.perf_counter()
        ms = self.kernel.sample_ms()
        t1 = time.perf_counter()
        self.times.append(0.5 * (t0 + t1))
        self.ms.append(ms)
        self.spent += t1 - t0

    def maybe_sample(self) -> None:
        """Sample if EVERY_S has passed since the last sample."""
        if not self.times or time.perf_counter() - self.times[-1] >= EVERY_S:
            self.sample()

    def factor(self, t: float) -> float:
        """NOMINAL_MS over the median kernel time of the samples near t."""
        lo = bisect.bisect_left(self.times, t - WINDOW_S)
        hi = bisect.bisect_right(self.times, t + WINDOW_S)
        near = self.ms[lo:hi]
        if not near:
            i = min(bisect.bisect_left(self.times, t), len(self.times) - 1)
            near = self.ms[max(i - 1, 0):i + 1]
        return NOMINAL_MS / statistics.median(near)
