"""Machine-speed references that the benchmark's timings are scaled by.

On a shared machine the speed of one core drifts by tens of percent over
minutes, as neighbours load the host's caches and memory bus.  Every kind
of code slows at once, but not by the same amount: dense linear algebra
drifts less than interpreter loops and streaming complex arithmetic.  So
each workload names a reference kernel here that does the same kind of
work as its hot path, with fixed inputs and in code of its own (not
``korobov``'s, so no change to the package can move it).  The benchmark
times the kernel after every task, for about a quarter of the task's
time, and reports each task's time as

    measured time * nominal_s / (mean kernel time just before and after it)

that is, in seconds of the reference machine, on which the kernel takes
``nominal_s``: a shared 2-vCPU Intel Xeon at 2.1 GHz, Python 3.11.7 and
numpy 2.4.6 with one OpenBLAS thread.  A slow spell lengthens a task and
its neighbouring reference times alike, and the ratio cancels most of it.
Kernel time is not task time: it counts toward no metric.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Reference time after each task, as a share of the task's time: the
# machine's speed changes within a second, so a long task needs a longer
# sample of it than one kernel call.
SHARE = 0.25


@dataclass(frozen=True)
class Reference:
    name: str
    nominal_s: float
    run: Callable[[], object]

    def seconds(self) -> float:
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0

    def median_seconds(self, repeats: int) -> float:
        return statistics.median(self.seconds() for _ in range(repeats))

    def mean_seconds(self, budget: float) -> float:
        """Mean time per call over whole calls until ``budget`` seconds have passed."""
        total, calls = 0.0, 0
        while calls == 0 or total < budget:
            total += self.seconds()
            calls += 1
        return total / calls


def interpreter() -> Reference:
    """Tuples, dicts and float powers in Python: the lattice recursions,
    coset grouping, config parsing and input generation."""
    rng = np.random.default_rng(12345)
    hs = [tuple(int(v) for v in row) for row in rng.integers(-30, 31, size=(1500, 3))]

    def run():
        groups: dict[tuple, list] = {}
        for h in hs:
            groups.setdefault(tuple(v % 7 for v in h), []).append(h)
        return [sum(1.3 * abs(v) ** 1.1 for v in h if v) for h in hs], len(groups)

    return Reference("interpreter", 3.5e-3, run)


def dense_svd() -> Reference:
    """The oracle's per-coset singular value of diag(w) - kept w^T at k = 300.
    (Adding the oracle's interpreter share to this kernel tracked the
    workload worse than the singular values alone.)"""
    rng = np.random.default_rng(23456)
    w = np.exp(-rng.uniform(0.0, 8.0, size=300))
    kept = (rng.random(300) < 0.4).astype(float)

    def run():
        return float(np.linalg.svd(np.diag(w) - np.outer(kept, w), compute_uv=False)[0])

    return Reference("dense_svd", 9.0e-3, run)


def phase_sums() -> Reference:
    """One block of character sums: exp(2 pi i x.h) over 4,096 points and
    64 frequencies, contracted with coefficients; then four rounds of the
    interpreter kernel, about 40% of the time.  In slow spells the sampling
    tasks slowed by more than the sums alone (by about their 1.2th power,
    in 5-second bins over four minutes), and this blend tracked them with
    a slope near 1."""
    rng = np.random.default_rng(34567)
    points = rng.random((4096, 3))
    freqs = rng.integers(-40, 41, size=(64, 3)).astype(float)
    coeffs = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    python = interpreter().run

    def run():
        for _ in range(4):
            python()
        return np.exp(2j * math.pi * (points @ freqs.T)) @ coeffs

    return Reference("phase_sums", 34.0e-3, run)


def scale(durations, references, nominal_s: float) -> list[float]:
    """Each duration in reference seconds.  ``references[i]`` was timed
    right after task i, so task i sits between references i-1 and i."""
    return [
        d * nominal_s / (0.5 * (references[max(0, i - 1)] + references[i]))
        for i, d in enumerate(durations)
    ]
