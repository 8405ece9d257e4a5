"""Machine-speed reference for normalising the benchmark's times.

The machine the benchmark runs on is shared, and its speed drifts by up to
a factor of two within minutes. The drift hits every CPU-bound program about
equally, so a fixed reference kernel, timed between the workload's steps,
measures it. Times and rates are reported at nominal speed:

    speed = REFERENCE_NOMINAL_S / mean(kernel times)  # 1.0 at nominal speed
    nominal time = raw time * speed,  nominal rate = raw rate / speed

Every timing of a workload's steps, the kernel's included, is summarised by
the mean of its repeats.  The machine slows down in spells; a step lasting
seconds absorbs them in proportion to the share of time they take, and so
does the mean of short kernel readings taken before every step of the run.
The two means therefore see the same average slowdown, which the scaling
removes.

The kernel uses no debox code, so a change to debox moves the workload's
times and not the reference.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: kernel time on a quiet 2-CPU x86-64 container (Python 3.11, numpy 2.4.6), so
#: that values at nominal speed read close to the raw values measured there
REFERENCE_NOMINAL_S = 0.017


def reference_kernel() -> float:
    """Interpreter work and small numpy calls, the same mix as a DE trial."""
    rng = np.random.Generator(np.random.PCG64(20230519))
    x = np.zeros(10)
    acc = 0.0
    for _ in range(3000):
        y = x + rng.random(10)
        acc += float(np.clip(y, 0.25, 0.75).sum())
        x = 0.5 * y
    return acc


def mean(values) -> float:
    """Arithmetic mean; 0 when there are no values."""
    values = list(values)
    return statistics.fmean(values) if values else 0.0


class MachineSpeed:
    """Kernel timings taken through one benchmark run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, count: int = 4) -> None:
        for _ in range(count):
            started = time.perf_counter()
            reference_kernel()
            self.samples.append(time.perf_counter() - started)

    def speed(self) -> float:
        return REFERENCE_NOMINAL_S / mean(self.samples)
