"""Host-speed reference: a fixed kernel timed between the benchmark's jobs.

On a shared machine the speed of the CPU this process gets drifts by
±20% over tens of seconds to minutes, and all code slows together. The
kernel below (a Python integer loop, dict inserts and small numpy array
ops, the same mix as the program's) is timed in a block of
``BLOCK_RUNS`` passes before the first job and after every job; the
median of all passes of the run gives the run's speed. ``wall_s`` is
scaled by ``REFERENCE_S / median kernel time``, i.e. given in seconds at
the reference speed; the raw job times are reported on the line before
the result. The kernel uses only the standard library and numpy, so a
change to powerctl cannot move it.

The kernel never runs inside a job, so no time of a job is taken out of
``wall_s``. A job ends with ``gc.collect()`` inside its own time, so the
kernel does not collect the job's garbage; whatever else a job leaves
running (a BLAS pool still spinning, say) can slow only the first passes
of a block, which the median discounts.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# about the median kernel time on the 2-CPU machine the baseline was taken on
REFERENCE_S = 0.03
BLOCK_RUNS = 8

_RNG = np.random.default_rng(0)
_A = _RNG.random((84, 4))
_B = _RNG.random((4, 4))


def kernel_seconds() -> float:
    """Wall time of one pass of the fixed reference kernel."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    table = {}
    for i in range(20_000):
        table[(i, i & 7)] = i
    m = _A
    for _ in range(1_500):
        m = np.clip(m @ _B, 0.0, 1.0) + 0.001 * np.where(m > 0.5, m, 0.0)
    return time.perf_counter() - t0


class Pace:
    """Kernel timings of one run and the scale they imply."""

    def __init__(self):
        self.samples = []

    def sample_block(self):
        self.samples.extend(kernel_seconds() for _ in range(BLOCK_RUNS))

    @property
    def median(self) -> float:
        return statistics.median(self.samples)

    @property
    def scale(self) -> float:
        """Factor taking this run's seconds to seconds at the reference speed."""
        return REFERENCE_S / self.median
