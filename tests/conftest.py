"""Shared test helpers: independent counting oracles and random instances.

The brute-force oracles here deliberately avoid the package's counting
and boundary-search code: boxes are taken generously large and
membership is decided by filtering the exponent sum directly, so
agreement with the library is evidence, not tautology.
``recursive_count`` is the exception: it is the memoized recursion the
package's iterative count replaced, kept as its bit-level reference.
"""

from __future__ import annotations

import itertools
import math
import os

# One BLAS/OpenMP thread, as bench/run.py pins it: threaded BLAS beside
# one other busy process slows the suite several times.  This must run
# before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest

from korobov.params import (
    ConstantFamily,
    ExplicitFamily,
    ExponentialFamily,
    GeometricFamily,
    KorobovParams,
    PowerFamily,
    validate,
)


def make_params(omega, a_terms, b_terms):
    """Params with explicitly listed weight terms (tail repeats)."""
    a = ExplicitFamily(tuple(float(v) for v in a_terms), "repeat")
    b = ExplicitFamily(tuple(float(v) for v in b_terms), "repeat")
    return validate(KorobovParams(omega=omega, a=a, b=b, s=len(a_terms)))


def row_major_points(grid) -> list[tuple[float, ...]]:
    """All n points (k_1/m_1, ..., k_s/m_s) of a regular grid, in
    row-major order of (k_1, ..., k_s)."""
    mesh = grid.mesh
    return [tuple(k / m for k, m in zip(ks, mesh)) for ks in itertools.product(*map(range, mesh))]


def box_radii(params, x):
    """Generous per-coordinate radii: every member has |h_j| within them."""
    radii = []
    for j in range(1, params.s + 1):
        a, b = params.a_term(j), params.b_term(j)
        if x <= 0:
            radii.append(0)
        else:
            radii.append(int(math.ceil((x / a) ** (1.0 / b))) + 1)
    return radii


def brute_force_count(params, x) -> int:
    """Independent count: accumulate per-coordinate exponent grids and
    filter partial sums below x (vectorized, prunes as it goes)."""
    if x <= 0:
        return 0
    sums = np.zeros(1)
    for j, radius in enumerate(box_radii(params, x), start=1):
        a, b = params.a_term(j), params.b_term(j)
        hs = np.arange(-radius, radius + 1, dtype=float)
        terms = a * np.abs(hs) ** b
        sums = (sums[:, None] + terms[None, :]).ravel()
        sums = sums[sums < x]
    return int(sums.size)


def recursive_count(av, bv, x) -> int:
    """|{h : E(h) < x}| by the forward recursion over coordinates that
    ``index_set._count`` replaced, kept as its reference.  A subproblem is
    fixed by the partial sum of the coordinates already chosen and the next
    coordinate, so it is memoized on (acc, dim); the last coordinate is
    closed by ``_reach``.  One Python frame per coordinate: deep spaces
    need a raised recursion limit.
    """
    from korobov.index_set import _pow_term, _reach

    x = float(x)
    last = len(av) - 1
    memo = {}

    def rec(acc, dim):
        a, b = av[dim], bv[dim]
        if dim == last:
            return 2 * _reach(a, b, acc, x) + 1
        key = (acc, dim)
        total = memo.get(key)
        if total is None:
            total = rec(acc, dim + 1)
            for h in range(1, _reach(a, b, acc, x) + 1):
                total += 2 * rec(acc + _pow_term(a, h, b), dim + 1)
            memo[key] = total
        return total

    return rec(0.0, 0) if x > 0.0 else 0


def brute_force_members(params, x) -> set[tuple[int, ...]]:
    """Independent enumeration over the generous box (small cases only)."""
    import itertools

    if x <= 0:
        return set()
    radii = box_radii(params, x)
    out = set()
    for h in itertools.product(*(range(-r, r + 1) for r in radii)):
        total = 0.0
        for j, hj in enumerate(h, start=1):
            total += params.a_term(j) * float(abs(hj)) ** params.b_term(j)
        if total < x:
            out.add(h)
    return out


def _random_a_family(rng):
    kind = rng.integers(0, 5)
    if kind == 0:
        return ConstantFamily(float(rng.uniform(1.0, 3.0)))
    if kind == 1:
        return PowerFamily(float(rng.uniform(1.0, 2.0)), float(rng.uniform(0.0, 2.0)))
    if kind == 2:
        return GeometricFamily(float(rng.uniform(1.0, 2.0)), float(rng.uniform(1.0, 2.5)))
    if kind == 3:
        return ExponentialFamily(float(rng.uniform(1.0, 2.0)), float(rng.uniform(0.0, 1.0)))
    values = np.sort(rng.uniform(1.0, 4.0, size=int(rng.integers(1, 4))))
    return ExplicitFamily(tuple(float(v) for v in values), "repeat")


def _random_b_family(rng):
    kind = rng.integers(0, 4)
    if kind == 0:
        return ConstantFamily(float(rng.uniform(1.0, 3.0)))
    if kind == 1:
        return PowerFamily(float(rng.uniform(1.0, 1.5)), float(rng.uniform(0.0, 1.5)))
    if kind == 2:
        return GeometricFamily(float(rng.uniform(1.0, 1.5)), float(rng.uniform(1.0, 2.0)))
    values = rng.uniform(1.0, 4.0, size=int(rng.integers(1, 4)))
    return ExplicitFamily(tuple(float(v) for v in values), "repeat")


def random_instance(rng, s_max=4, x_max=50.0, work_cap=200_000):
    """Random validated (params, x) with x > a_1 and bounded oracle work.

    The work screen bounds the brute-force box volume, which also bounds
    the library's counting work; instances are redrawn until they fit.
    """
    while True:
        s = int(rng.integers(1, s_max + 1))
        params = KorobovParams(
            omega=float(rng.uniform(0.1, 0.9)),
            a=_random_a_family(rng),
            b=_random_b_family(rng),
            s=s,
        )
        validate(params)
        a1 = params.a_term(1)
        if a1 >= x_max:
            continue
        for _ in range(8):
            x = float(rng.uniform(a1 + 0.05, x_max))
            volume = 1.0
            for r in box_radii(params, x):
                volume *= 2 * r + 1
            if volume <= work_cap:
                return params, x
        # this family needs a smaller budget than we are willing to draw


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
