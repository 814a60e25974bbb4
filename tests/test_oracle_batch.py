"""Several oracles in one bracket loop.

``_top_sq_brackets`` takes an ``owner`` per group and keeps each owner's
largest lower end apart, so a batched call must give every group the
probes, and so the lo and hi, of a call on its own job: bit for bit.
``_oracle_many`` runs several (algorithm, trunc_x) jobs over one space
with shared windows and one bracket loop; each result, or each cap hit,
must be the one ``exact_worst_case_error`` gives for that job alone.
"""

import math

import numpy as np
import pytest

from conftest import make_params
from korobov.errors import CapExceeded, InvalidParameterError
from korobov.grids import RegularGrid
from korobov.index_set import count_below, enumerate_below
from korobov.oracle import _oracle_many, _top_sq_brackets, exact_worst_case_error
from korobov.sampling import build_std_algorithm


def random_space(rng):
    s = int(rng.integers(1, 5))
    if rng.random() < 0.5:
        # integer weights: many exponents tie
        av = tuple(float(v) for v in np.sort(rng.integers(1, 3, size=s)))
        bv = tuple(float(v) for v in rng.integers(1, 3, size=s))
    else:
        av = tuple(float(v) for v in np.sort(rng.uniform(1.0, 2.0, size=s)))
        bv = tuple(float(v) for v in rng.uniform(1.0, 1.6, size=s))
    return make_params(float(rng.uniform(0.3, 0.7)), av, bv)


def random_budgets(rng, params, threshold, k):
    """k truncation budgets above threshold, each either 2.5 threshold or
    the exponent of a lattice point (on-lattice); repeats are likely."""
    window = enumerate_below(params, 3.0 * threshold)
    lattice = window.walk_exponents[window.walk_exponents > 1.5 * threshold]
    return [
        float(rng.choice(lattice)) if lattice.size and rng.random() < 0.5 else 2.5 * threshold
        for _ in range(k)
    ]


def random_jobs(rng, max_window=3000):
    """(params, [(alg, trunc_x), ...]) with small windows; meshes of ones
    give single-coset jobs."""
    while True:
        params = random_space(rng)
        threshold = float(rng.uniform(1.5, 4.0)) * params.a_term(1)
        budgets = random_budgets(rng, params, threshold, int(rng.integers(2, 6)))
        if max(count_below(params, x) for x in budgets) <= max_window:
            break
    M = math.exp(threshold * params.log_inv_omega)
    jobs = []
    for trunc_x in budgets:
        if rng.random() < 0.25:
            mesh = (1,) * params.s
        else:
            mesh = tuple(int(m) for m in rng.integers(1, 5, size=params.s))
        jobs.append((build_std_algorithm(params, M, RegularGrid(mesh)), trunc_x))
    return params, jobs


def grouped(alg, trunc_x):
    """The oracle's bracket input for one job: weights, kept mask, coset
    ids and coset count, grouped by residues then exponent."""
    window = enumerate_below(alg.params, trunc_x)
    residues = window.walk_members % np.array(alg.grid.mesh, dtype=np.int64)
    order = np.lexsort((window.walk_exponents, *residues.T[::-1]))
    residues = residues[order]
    exponents = window.walk_exponents[order]
    ids = np.concatenate(([0], np.cumsum(np.any(residues[1:] != residues[:-1], axis=1))))
    weights = np.exp(exponents * -alg.params.log_inv_omega)
    return weights, exponents < alg.threshold, ids, int(ids[-1]) + 1


def batch(parts):
    counts = [n for *_, n in parts]
    starts = np.cumsum([0] + counts)
    return (
        np.concatenate([w for w, *_ in parts]),
        np.concatenate([k for _, k, *_ in parts]),
        np.concatenate([ids + start for (_, _, ids, _), start in zip(parts, starts)]),
        int(starts[-1]),
        np.repeat(np.arange(len(parts)), counts),
    ), starts


@pytest.mark.parametrize("seed", range(40))
def test_batched_brackets_equal_separate_calls_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    parts = []
    while len(parts) < 4:
        _, jobs = random_jobs(rng)
        for alg, trunc_x in jobs:
            weights, kept, ids, n = grouped(alg, trunc_x)
            kind = rng.integers(0, 4)
            if kind == 0:
                kept = np.zeros_like(kept)  # no kept entries: diagonal cosets
            elif kind == 1:
                # an exactly scaled copy far below the others: a floor shared
                # across jobs would stop its groups early
                weights = weights * 2.0**-40
            parts.append((weights, kept, ids, n))
    args, starts = batch(parts)
    lo, hi = _top_sq_brackets(*args)
    for (weights, kept, ids, n), a, b in zip(parts, starts, starts[1:]):
        lo_1, hi_1 = _top_sq_brackets(weights, kept, ids, n)
        assert lo[a:b].tobytes() == lo_1.tobytes()
        assert hi[a:b].tobytes() == hi_1.tobytes()
        # owner=None is one job
        lo_0, hi_0 = _top_sq_brackets(weights, kept, ids, n, np.zeros(n, dtype=np.int64))
        assert lo_0.tobytes() == lo_1.tobytes() and hi_0.tobytes() == hi_1.tobytes()


def same_outcome(got, alg, trunc_x, **caps):
    try:
        expected = exact_worst_case_error(alg, trunc_x, **caps)
    except CapExceeded as exc:
        assert isinstance(got, CapExceeded)
        assert (got.what, got.limit, got.needed) == (exc.what, exc.limit, exc.needed)
        return "capped"
    assert got == expected
    return "result"


@pytest.mark.parametrize("seed", range(40))
def test_oracle_many_equals_one_call_per_job(seed):
    rng = np.random.default_rng(1000 + seed)
    params, jobs = random_jobs(rng)
    got = _oracle_many(jobs)
    assert len(got) == len(jobs)
    for result, (alg, trunc_x) in zip(got, jobs):
        assert same_outcome(result, alg, trunc_x) == "result"


@pytest.mark.parametrize("seed", range(20))
def test_oracle_many_caps_per_job(seed):
    rng = np.random.default_rng(2000 + seed)
    while True:
        params, jobs = random_jobs(rng)
        windows = sorted({count_below(params, x) for _, x in jobs})
        if len(windows) >= 2:
            break
    # the smallest window fits, the largest does not
    cap_set = windows[0]
    largest = [exact_worst_case_error(alg, x).largest_coset for alg, x in jobs]
    coset_cap = int(rng.integers(min(largest), max(largest) + 1))
    caps = {"cap_set": cap_set, "coset_cap": coset_cap}
    got = _oracle_many(jobs, **caps)
    outcomes = [same_outcome(r, alg, x, **caps) for r, (alg, x) in zip(got, jobs)]
    assert "capped" in outcomes


def test_jobs_sharing_a_budget_share_one_window():
    params = make_params(0.5, (1.0, 1.3), (1.0, 1.2))
    algs = [build_std_algorithm(params, 6.0, RegularGrid(m)) for m in ((2, 1), (2, 3), (1, 1))]
    jobs = [(alg, 20.0) for alg in algs] + [(algs[0], 18.5)]
    got = _oracle_many(jobs)
    for result, (alg, trunc_x) in zip(got, jobs):
        assert result == exact_worst_case_error(alg, trunc_x)
    assert got[2].coset_count == 1  # mesh of ones: one coset
    assert _oracle_many([]) == []


def test_invalid_jobs_raise_before_any_walk():
    params = make_params(0.5, (1.0, 1.3), (1.0, 1.2))
    alg = build_std_algorithm(params, 6.0, RegularGrid((2, 2)))
    with pytest.raises(InvalidParameterError):
        _oracle_many([(alg, 20.0), (alg, alg.threshold)])
    other = build_std_algorithm(make_params(0.4, (1.0, 1.3), (1.0, 1.2)), 6.0, RegularGrid((2, 2)))
    with pytest.raises(InvalidParameterError):
        _oracle_many([(alg, 20.0), (other, 20.0)])


def dense_top_sq(sq, kept):
    w = np.sqrt(sq)
    matrix = np.diag(w) - np.outer(kept.astype(float), w)
    return float(np.linalg.svd(matrix, compute_uv=False)[0]) ** 2


def mixed_cosets(rng, count):
    """(sq, kept) cosets, sq descending with the kept ones first: lone
    kept and lone discarded members, cosets with no kept member, and
    cosets of two to seven members with one or more kept."""
    cosets = []
    for kind in rng.integers(0, 4, size=count):
        size = 1 if kind < 2 else int(rng.integers(2, 8))
        p = [1, 0, 0, int(rng.integers(1, size + 1))][kind]
        sq = np.sort(2.0 ** -rng.uniform(0.0, 30.0, size))[::-1]
        cosets.append((sq, np.arange(size) < p))
    return cosets


@pytest.mark.parametrize("seed", range(10))
def test_closed_form_cosets_in_a_batch_match_the_dense_svd(seed):
    rng = np.random.default_rng(3000 + seed)
    jobs = [mixed_cosets(rng, int(rng.integers(1, 25))) for _ in range(3)]
    parts = []
    for cosets in jobs:
        sizes = [sq.size for sq, _ in cosets]
        parts.append((
            np.concatenate([sq for sq, _ in cosets]),
            np.concatenate([kept for _, kept in cosets]),
            np.repeat(np.arange(len(cosets)), sizes),
            len(cosets),
        ))
    args, starts = batch(parts)
    lo, hi = _top_sq_brackets(*args)
    for cosets, part, a, b in zip(jobs, parts, starts, starts[1:]):
        lo_1, hi_1 = _top_sq_brackets(*part)
        assert lo[a:b].tobytes() == lo_1.tobytes() and hi[a:b].tobytes() == hi_1.tobytes()
        top = int(np.argmax(lo_1))
        for g, (sq, kept) in enumerate(cosets):
            ref = dense_top_sq(sq, kept)
            slack = sq.size * 2.0**-53 * ref
            assert lo_1[g] - slack <= ref <= hi_1[g] + slack
            if sq.size == 1 or not kept.any():
                # exact: sigma**2 is the largest weight, or 0 for a lone kept member
                assert lo_1[g] == hi_1[g] == (0.0 if kept.any() else sq[0])
        # the job's maximum is bracketed to a few ulps
        assert hi_1[top] - lo_1[top] <= 1e-12 * hi_1[top]


def test_a_closed_form_coset_still_stops_the_lighter_cosets_of_its_job():
    # the open coset's start hi, 2 ||M||_F**2 = 3 * 2**-40, is below the
    # discarded lone member's exact 1.0, so it cannot hold the job's
    # maximum and is never probed; alone it is bracketed tightly
    sq = 2.0**-40 * np.array([1.0, 0.5, 0.25])
    kept = np.array([True, False, False])
    lo_1, hi_1 = _top_sq_brackets(sq, kept, np.zeros(3, dtype=np.int64), 1)
    lo, hi = _top_sq_brackets(
        np.concatenate(([1.0], sq)), np.concatenate(([False], kept)), np.array([0, 1, 1, 1]), 2
    )
    assert lo[0] == hi[0] == 1.0
    assert hi[1] == 3.0 * 2.0**-40
    assert hi_1[0] - lo_1[0] <= 1e-12 * hi_1[0] < hi[1] - lo[1]
