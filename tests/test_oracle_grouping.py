"""The oracle's one-sort coset grouping against the two-sort reference.

The reference groups as the oracle once did: the window sorted by
(E(h), h), then a stable lexsort on the residues mod the mesh.  The
oracle now orders the walk by one lexsort with the residues as major
keys and the exponent as minor key.  Within a coset both list weights
descending, and rows that tie in exponent carry the same weight, so the
brackets must agree.
"""

import math

import numpy as np
import pytest

from conftest import make_params
from korobov.grids import RegularGrid
from korobov.index_set import count_below, enumerate_below
from korobov.oracle import _top_sq_brackets, exact_worst_case_error
from korobov.sampling import build_std_algorithm


def reference_grouping(alg, trunc_x):
    """(coset_count, largest_coset, max lower end, max upper end) with the
    sorted window and a second, stable sort by residue."""
    window = enumerate_below(alg.params, trunc_x)
    residues = window.member_array % np.array(alg.grid.mesh, dtype=np.int64)
    order = np.lexsort(residues.T[::-1])
    residues = residues[order]
    exponents = window.exponent_array[order]
    ids = np.concatenate(([0], np.cumsum(np.any(residues[1:] != residues[:-1], axis=1))))
    count = int(ids[-1]) + 1
    weights = np.exp(exponents * -alg.params.log_inv_omega)
    lo, hi = _top_sq_brackets(weights, exponents < alg.threshold, ids, count)
    return count, int(np.bincount(ids).max()), float(lo.max()), float(hi.max())


def random_case(rng):
    s = int(rng.integers(1, 5))
    if rng.random() < 0.5:
        # integer weights: many exponents tie
        av = tuple(float(v) for v in np.sort(rng.integers(1, 3, size=s)))
        bv = tuple(float(v) for v in rng.integers(1, 3, size=s))
    else:
        av = tuple(float(v) for v in np.sort(rng.uniform(1.0, 2.0, size=s)))
        bv = tuple(float(v) for v in rng.uniform(1.0, 1.6, size=s))
    params = make_params(float(rng.uniform(0.3, 0.7)), av, bv)
    mesh = tuple(int(m) for m in rng.integers(1, 5, size=s))
    return params, mesh


def on_lattice_budget(params, above, rng):
    """The exponent of a frequency just above ``above``: a budget that
    sits on a lattice exponent."""
    window = enumerate_below(params, 1.6 * above)
    exponents = window.walk_exponents[window.walk_exponents > above]
    return float(rng.choice(exponents))


@pytest.mark.parametrize("seed", range(40))
def test_one_sort_groups_like_two(seed):
    rng = np.random.default_rng(seed)
    while True:
        params, mesh = random_case(rng)
        threshold = float(rng.uniform(1.5, 4.0)) * params.a_term(1)
        trunc_x = 2.5 * threshold
        if rng.random() < 0.5:
            trunc_x = on_lattice_budget(params, 1.5 * threshold, rng)
        if count_below(params, trunc_x) <= 4000:
            break
    alg = build_std_algorithm(params, math.exp(threshold * params.log_inv_omega), RegularGrid(mesh))
    got = exact_worst_case_error(alg, trunc_x)
    count, largest, lo, hi = reference_grouping(alg, trunc_x)
    assert (got.coset_count, got.largest_coset) == (count, largest)
    ref_value = math.nextafter(math.sqrt(lo), 0.0)
    assert got.value == pytest.approx(ref_value, rel=1e-12, abs=0.0)
    # the brackets [value**2, upper**2] and [lo, hi] overlap
    assert got.value**2 <= hi * (1 + 1e-12)
    assert lo <= got.upper**2 * (1 + 1e-12)
