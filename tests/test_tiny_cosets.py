"""Cosets of one to four members against an exact reference.

A dense SVD in double precision is no reference for tiny cosets: for
two kept members with sq = (6.21043813086e-05, 5.5071e-06) it returns
a top squared singular value 7e-16 relative below the exact one, more
than its own size * u slack.  Here the reference is the top eigenvalue
of M^T M = D**2 + (p - k_i - k_j) w_i w_j solved with 50 digits, and
every bracket must hold it: lo <= exact <= hi.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from korobov.oracle import _top_sq_brackets


def exact_top_sq(sq, kept):
    """Top eigenvalue of M^T M, 50 digits, with w_i**2 = sq_i exactly."""
    p = int(kept.sum())
    with mp.workdps(50):
        w = [mp.sqrt(mp.mpf(float(v))) for v in sq]
        gram = mp.matrix(len(sq), len(sq))
        for i in range(len(sq)):
            for j in range(len(sq)):
                gram[i, j] = (p - int(kept[i]) - int(kept[j])) * w[i] * w[j]
            gram[i, i] += w[i] ** 2
        return max(mp.eigsy(gram, eigvals_only=True))


def assert_holds(sq, kept, lo, hi):
    top = exact_top_sq(sq, kept)
    with mp.workdps(50):
        # the 50-digit solve is accurate far beyond 1e-40
        tiny = mp.mpf(10) ** -40
        assert mp.mpf(float(lo)) * (1 - tiny) <= top, (sq.tolist(), kept.tolist(), lo, top)
        assert top <= mp.mpf(float(hi)) * (1 + tiny), (sq.tolist(), kept.tolist(), hi, top)


def test_two_kept_members_where_a_dense_svd_reads_low():
    sq = np.array([6.21043813086e-05, 5.5071e-06])
    kept = np.array([True, True])
    lo, hi = _top_sq_brackets(sq, kept, np.zeros(2, dtype=np.int64), 1)
    assert_holds(sq, kept, lo[0], hi[0])
    # with every member kept, M^T M = D**2: the exact value is the top weight
    assert lo[0] <= sq[0] <= hi[0]


def random_tiny_coset(rng):
    size = int(rng.integers(1, 5))
    p = int(rng.integers(0, size + 1))
    kind = rng.integers(0, 3)
    if kind == 0:
        exponents = rng.uniform(0.0, 40.0, size)
    elif kind == 1:
        exponents = np.round(rng.uniform(0.0, 6.0, size))  # exact ties
    else:
        # nearly equal weights, a few ulps apart
        exponents = rng.uniform(0.0, 20.0) + rng.integers(0, 4, size) * 1e-15
    sq = np.sort(np.exp(-exponents * math.log(2.0)))[::-1].copy()
    # a coset lists its kept members first, each part descending
    kept = np.zeros(size, dtype=bool)
    kept[:p] = True
    return sq, kept


@pytest.mark.parametrize("seed", range(30))
def test_random_tiny_cosets_hold_the_exact_value(seed):
    rng = np.random.default_rng(seed)
    cosets = [random_tiny_coset(rng) for _ in range(8)]
    for sq, kept in cosets:
        lo, hi = _top_sq_brackets(sq, kept, np.zeros(sq.size, dtype=np.int64), 1)
        assert_holds(sq, kept, lo[0], hi[0])
    # the same cosets batched as one job each
    sq = np.concatenate([c[0] for c in cosets])
    kept = np.concatenate([c[1] for c in cosets])
    ids = np.concatenate([np.full(c[0].size, g) for g, c in enumerate(cosets)])
    owner = np.arange(len(cosets))
    lo, hi = _top_sq_brackets(sq, kept, ids, len(cosets), owner)
    for g, (c_sq, c_kept) in enumerate(cosets):
        assert_holds(c_sq, c_kept, lo[g], hi[g])
