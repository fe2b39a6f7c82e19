"""Machine-speed calibration for the benchmark's timings.

The shared machines this benchmark runs on change speed by up to 2x over
minutes (another tenant on the same cores), which no statistic over one run
can remove.  So a fixed calibration kernel runs just before and just after
every timed job, and the job's time is reported in *reference seconds*:

    t_ref = t_measured * REFERENCE_S[kernel] / t_kernel_now

with the factor averaged over the two calibrations.

A kernel that takes REFERENCE_S on the machine leaves times unchanged.  The
kernels are the benchmark's own code, never foamtor's, so a change to the
program moves t_measured and not t_kernel.  Each workload picks the kernel
that slows like its jobs do: ``batched`` (quaternion products over 5e4-wide
arrays, like Monte Carlo) or ``scalar`` (many tiny numpy calls and Python
loops, like descent and the twisted complex).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REPEATS = 3            # kernel runs per calibration; their median is used

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((8, 4))
_LARGE = _rng.standard_normal((50_000, 4))


def _quaternion_step(q):
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    out = np.stack([w * w - x * y - y * z - z * x, w * x + x * w + y * z - z * y,
                    w * y - x * z + y * w + z * x, w * z + x * y - y * x + z * w + 1.0],
                   axis=-1)
    return out / np.linalg.norm(out, axis=-1, keepdims=True)


def _scalar():
    q = _SMALL
    for _ in range(50):
        q = _quaternion_step(q)
    acc = 0
    for i in range(1500):
        acc += i * i
    return q, acc


def _batched():
    q = _quaternion_step(_LARGE)
    return q, np.exp(-np.arccos(np.clip(q[:, 0], -1.0, 1.0)) ** 2).sum()


KERNELS = {"scalar": _scalar, "batched": _batched}
# kernel times on the reference machine (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4)
REFERENCE_S = {"scalar": 1.3e-3, "batched": 5.8e-3}


class Speed:
    """Factor that turns measured seconds into reference seconds."""

    def __init__(self, kernel):
        self.kernel = KERNELS[kernel]
        self.reference = REFERENCE_S[kernel]

    def measure(self):
        """Kernel time now (median of REPEATS runs)."""
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def factor(self):
        return self.reference / self.measure()
