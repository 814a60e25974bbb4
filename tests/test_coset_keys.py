"""``RegularGrid.coset_keys`` labels dual-lattice cosets as plain residues do.

Two frequencies lie in one coset when they agree modulo every mesh side.
The keys reduce each side to min(m_j, 2 R_j + 1), R_j the largest |h_j|
of the given rows, so sides past int64 (10**19, 10**300) still give int64
keys.  They must split the rows exactly as the plain residues mod m do,
taken with Python integers, and sort the cosets in the same order.
"""

import math

import numpy as np
import pytest

from conftest import make_params
from korobov.grids import RegularGrid
from korobov.index_set import enumerate_below
from korobov.sampling import build_std_algorithm
from test_oracle_grouping import reference_grouping

SIDES = [1, 2, 3, 7, 2**62, 10**19, 10**300]


def plain_residues(members, mesh):
    return [tuple(h % m for h, m in zip(row, mesh)) for row in members.tolist()]


@pytest.mark.parametrize("seed", range(30))
def test_keys_split_and_order_rows_as_plain_residues(seed):
    rng = np.random.default_rng(seed)
    s = int(rng.integers(1, 5))
    mesh = tuple(SIDES[i] for i in rng.integers(0, len(SIDES), size=s))
    reach = rng.integers(0, 40, size=s)
    members = rng.integers(-reach, reach + 1, size=(int(rng.integers(0, 300)), s)).astype(np.int64)
    keys = RegularGrid(mesh).coset_keys(members)
    assert keys.dtype == np.int64 and keys.shape == members.shape
    assert (keys >= 0).all()
    plain = plain_residues(members, mesh)
    key_rows = [tuple(k) for k in keys.tolist()]
    # equal keys <=> equal plain residues: each side determines the other
    assert len(set(key_rows)) == len(set(plain)) == len(set(zip(key_rows, plain)))
    # a stable sort by keys is the stable sort by plain residues
    order = np.lexsort(keys.T[::-1]).tolist()
    assert order == sorted(range(len(plain)), key=plain.__getitem__)


def test_every_side_fits_int64_for_an_empty_or_zero_column():
    grid = RegularGrid((10**300, 2**62, 1))
    assert grid.coset_keys(np.zeros((0, 3), dtype=np.int64)).shape == (0, 3)
    keys = grid.coset_keys(np.array([[0, 5, 3], [0, -5, -3]], dtype=np.int64))
    assert keys.tolist() == [[0, 5, 0], [0, 6, 0]]


@pytest.mark.parametrize("seed", range(10))
def test_window_cosets_match_the_reference_grouping(seed):
    rng = np.random.default_rng(seed)
    s = int(rng.integers(1, 4))
    av = tuple(float(v) for v in np.sort(rng.uniform(1.0, 2.0, size=s)))
    bv = tuple(float(v) for v in rng.uniform(1.0, 1.6, size=s))
    params = make_params(float(rng.uniform(0.3, 0.7)), av, bv)
    mesh = tuple(int(m) for m in rng.integers(1, 6, size=s))
    threshold = float(rng.uniform(1.5, 3.0)) * params.a_term(1)
    alg = build_std_algorithm(params, math.exp(threshold * params.log_inv_omega), RegularGrid(mesh))
    trunc_x = 2.5 * threshold
    members = enumerate_below(params, trunc_x).member_array
    keys = alg.grid.coset_keys(members)
    # a stable sort by keys orders the rows as the reference's sort by residues
    by_keys = members[np.lexsort(keys.T[::-1])]
    assert (by_keys == members[np.lexsort((members % mesh).T[::-1])]).all()
    _, counts = np.unique(keys, axis=0, return_counts=True)
    count, largest, _, _ = reference_grouping(alg, trunc_x)
    assert (counts.size, int(counts.max())) == (count, largest)
