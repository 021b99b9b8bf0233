"""Machine-speed calibration for the interpreter-heavy workloads.

On a small shared machine the speed of interpreter-bound code drifts by 20%
and more within minutes (measured on a shared 2-vCPU Xeon VM: ten-seed
spread of a scan's median latency 0.17-0.26 as IQR/median), far beyond any
useful regression bound.  The scans and the point-dominated oracle workload
therefore time a fixed numpy kernel, made of the same kind of work as the
Gaussian route (many tiny 4x4 numpy calls), right before and after every
invocation, and scale the invocation's time by ``REFERENCE_S / kernel
time``: times read as if the machine ran the kernel in ``REFERENCE_S``.
With it the same spread is 0.03-0.07 on the scans, and 0.07-0.09 against
0.12-0.16 unscaled at oracle cutoff 40.  The build-dominated cutoff-80
oracle is LAPACK-bound and no kernel tried tracked its drift better than
none (0.23 scaled by a dense eigendecomposition, 0.07-0.10 unscaled), so it
is not scaled.  The kernel uses numpy only, so no change to the package can
move it.
"""

from __future__ import annotations

import time

import numpy as np

# Close to the kernel's time on the 2-vCPU VM the benchmark was tuned on, so
# scaled times read close to raw ones there.
REFERENCE_S = 0.025


class Calibrator:
    """Runs the kernel between timed intervals and scales each interval by it."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self._before = self.kernel_seconds()

    def kernel_seconds(self) -> float:
        a = self._a
        b = a.conj().T
        t0 = time.perf_counter()
        for _ in range(1500):
            c = a @ b
            np.linalg.det(c)
            np.max(np.abs(c - b))
            float(np.real(np.trace(c)))
        return time.perf_counter() - t0

    def scale(self, seconds: float) -> tuple[float, float]:
        """(scaled seconds, kernel seconds) for an interval that just ended.

        The kernel time is the mean of the runs just before and just after
        the interval; the run after it also serves the next interval.
        """
        after = self.kernel_seconds()
        kernel = 0.5 * (self._before + after)
        self._before = after
        return seconds * REFERENCE_S / kernel, kernel
