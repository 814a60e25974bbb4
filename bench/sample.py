"""Workload ``sample``: running grid algorithms on functions.

Tasks apply a sampling algorithm to a seeded unit-ball element, take the
grid mean of one, or integrate one with a grid rule, at s = 2..3 and n
from about 10**3 to 3*10**5.  Nearly all time is spent evaluating the
function at the grid points (``evaluate_many``) and in the sampled
character sums; the oracle never runs.

Each task's work is pinned by a ladder of operation counts
n * (|A| + |supp f|); the seed draws the space, the grid shape within
that count and the function.
"""

from __future__ import annotations

import math

import numpy as np

import korobov
import korobov.grids
from common import Task, budget_for_count, draw_weights, explicit_params, geometric_ladder, require
from reference import phase_sums as REFERENCE

REL_TOL = 1e-11  # criterion 06
# Largest |A| + |supp f|: the transform's memory per block grows with it,
# and the largest strata reach it, so peak memory does not depend on the seed.
MAX_TERMS = 300


def _mesh_for(rng, s: int, n_target: float) -> tuple[int, ...]:
    """A seeded mesh shape whose size is n_target to within a rounding of
    its largest side, so the seed moves the shape but not the cost."""
    shares = rng.dirichlet(np.full(s, 4.0))
    mesh = [max(1, int(round(n_target**share))) for share in shares]
    widest = int(np.argmax(shares))
    rest = math.prod(m for j, m in enumerate(mesh) if j != widest)
    mesh[widest] = max(1, int(round(n_target / rest)))
    return tuple(mesh)


def _coset_sums(f, mesh, hs) -> np.ndarray:
    """Sum of f's coefficients over each h's coset mod the mesh, grouped
    with numpy: an implementation independent of the package's."""
    freqs = np.array(list(f.coefficients.keys()), dtype=np.int64)
    coeffs = np.array(list(f.coefficients.values()), dtype=complex)
    m = np.array(mesh, dtype=np.int64)
    keys = np.mod(freqs, m)
    query = np.mod(np.array(hs, dtype=np.int64).reshape(len(hs), len(mesh)), m)
    table: dict[tuple, complex] = {}
    for key, c in zip(map(tuple, keys), coeffs):
        table[key] = table.get(key, 0j) + c
    return np.array([table.get(tuple(q), 0j) for q in query])


def _space_and_function(rng, support: int, s: int):
    a, b = draw_weights(rng, s, (1.0, 1.8), (1.0, 1.5))
    params = explicit_params(float(rng.uniform(0.4, 0.7)), a, b)
    x_f = budget_for_count(params, support, lo=1e-3)
    f = korobov.random_unit_ball(params, korobov.enumerate_below(params, x_f), seed=int(rng.integers(2**31)))
    return params, f


def _check_coefficients(f, grid, hs, sampled, rng_seed):
    scale = max(1.0, sum(abs(c) for c in f.coefficients.values()))
    direct = _coset_sums(f, grid.mesh, hs)
    worst = float(np.max(np.abs(np.asarray(sampled) - direct))) / scale
    require(worst <= REL_TOL, f"sampled vs coset sums differ by {worst:.2e} relative")
    # the package's own coset sum on a few frequencies agrees as well
    pick = np.random.default_rng(rng_seed).choice(len(hs), size=min(8, len(hs)), replace=False)
    for i in pick:
        ref = korobov.dual_coset_sum(grid, f, hs[i])
        require(abs(ref - direct[i]) <= 1e-13 * scale, "dual_coset_sum disagrees with grouping")


def _points(work, n_range, u):
    """Grid size at position u in [0, 1) of the log range allowed by
    n_range and the work's limits on terms per point."""
    lo = max(n_range[0], work / MAX_TERMS)
    hi = max(lo, min(n_range[1], work / 10))
    return lo * (hi / lo) ** u


def _apply_task(rng, work, n, s):
    while True:
        terms = work / n
        kept = max(3, int(0.35 * terms))
        support = max(3, int(terms) - kept)
        params, f = _space_and_function(rng, support, s)
        grid = korobov.RegularGrid(_mesh_for(rng, params.s, work / (kept + len(f.coefficients))))
        x_a = budget_for_count(params, kept, lo=1e-3)
        M = math.exp(x_a * params.log_inv_omega)
        if M > 1.0 and grid.n <= 10**6:
            break
    seed = int(rng.integers(2**31))

    def run():
        alg = korobov.build_std_algorithm(params, M, grid)
        return alg, korobov.apply_algorithm(alg, f)

    def check(out):
        alg, g = out
        members = list(alg.index_set.members)
        require(set(g.coefficients) == set(members), "output not supported on the kept set")
        _check_coefficients(f, grid, members, [g.coefficients[h] for h in members], seed)

    return Task("apply", run, check)


def _mean_task(rng, work, kind, n, s):
    while True:
        params, f = _space_and_function(rng, max(3, int(work / n)), s)
        grid = korobov.RegularGrid(_mesh_for(rng, params.s, work / len(f.coefficients)))
        if grid.n <= 10**6:
            break
    seed = int(rng.integers(2**31))
    zero = (0,) * params.s
    if kind == "mean":
        run = lambda: korobov.grids.sample_mean(grid, f)
    else:
        run = lambda: korobov.integrate(korobov.GridRule(grid), f)

    def check(value):
        _check_coefficients(f, grid, [zero], [value], seed)

    return Task(kind, run, check)


def build(rng: np.random.Generator, workdir: str) -> list[Task]:
    # Timing on a shared machine drifts between runs, and tasks of
    # different kinds drift differently.  So a block of 16 equal apply
    # tasks holds the median and a block of 6 equal tasks the 90th
    # percentile: however the others reorder, those quantiles stay inside
    # a block.  Grid sizes are spread over each stratum's range by a
    # fixed sequence, not by the seed; block tasks use a narrower range.
    # The largest strata use the most terms per point.
    wide, narrow = (1e3, 3e5), (1.5e4, 6e4)
    ladder = [(w, wide) for w in geometric_ladder(5e4, 1.2e6, 12)]
    ladder += [(w, wide) for w in geometric_ladder(2.2e6, 5e6, 4)]
    ladder += [(7e6, narrow)] * 6
    ladder += [(w, (w / MAX_TERMS, w / MAX_TERMS)) for w in (1.2e7, 1.5e7)]
    tasks = []
    for i, (work, n_range) in enumerate(ladder):
        n = _points(work, n_range, (0.618034 * i) % 1.0)
        s = 2 + i % 2
        if i % 3 == 1:
            tasks.append(_mean_task(rng, work, "mean", n, s))
        elif i % 3 == 2:
            tasks.append(_mean_task(rng, work, "integrate", n, s))
        else:
            tasks.append(_apply_task(rng, work, n, s))
    for i in range(16):
        n = _points(1.6e6, narrow, (0.618034 * i) % 1.0)
        tasks.append(_apply_task(rng, 1.6e6, n, 2 + i % 2))
    return tasks
