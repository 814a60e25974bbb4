"""The matrix-free worst-case oracle against dense references.

Each coset's error matrix is diag(w) - outer(kept, w).  The oracle never
forms it; here it is formed and its top singular value taken by dense
SVD (or, for small cosets, by a 50-digit eigensolve), and the oracle's
brackets and values are held against those.  The mass beyond the
truncation window is held against a 40-digit mpmath reference.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from conftest import make_params, random_instance
from korobov.errors import CapExceeded
from korobov.grids import RegularGrid
from korobov.index_set import enumerate_below
from korobov.oracle import _top_sq_brackets, exact_worst_case_error
from korobov.params import GeometricFamily, KorobovParams
from korobov.sampling import build_std_algorithm, mesh_for_accuracy, threshold_algorithm

U = 2.0**-53


def dense_top_sq(sq, kept):
    w = np.sqrt(sq)
    matrix = np.diag(w) - np.outer(kept.astype(float), w)
    return float(np.linalg.svd(matrix, compute_uv=False)[0]) ** 2


def random_coset(rng, size, p, tied):
    """Squared weights sorted descending, the first p of them kept."""
    exponents = np.sort(rng.uniform(0.0, 30.0, size))
    if tied:
        exponents = np.round(exponents)  # many exact ties
    sq = np.exp(-exponents * math.log(2.0))
    return sq, np.arange(size) < p


def coset_cases(rng):
    cases = [(2, 1), (1, 0), (1, 1), (5, 0), (400, 400), (400, 0), (400, 1)]
    for _ in range(60):
        size = int(rng.integers(2, 401))
        cases.append((size, int(rng.integers(0, size + 1))))
    return cases


def test_brackets_contain_dense_svd(rng):
    for size, p in coset_cases(rng):
        for tied in (False, True):
            sq, kept = random_coset(rng, size, p, tied)
            lo, hi = _top_sq_brackets(sq, kept, np.zeros(size, dtype=np.int64), 1)
            ref = dense_top_sq(sq, kept)
            # the dense SVD is itself accurate to a few ulps times the size
            slack = size * U * ref
            assert lo[0] - slack <= ref <= hi[0] + slack, (size, p, tied)
            assert hi[0] - lo[0] <= 1e-12 * hi[0], (size, p, tied)


def test_brackets_contain_50_digit_eigenvalue(rng):
    for _ in range(60):
        size = int(rng.integers(1, 9))
        p = int(rng.integers(0, size + 1))
        sq, kept = random_coset(rng, size, p, tied=bool(rng.integers(0, 2)))
        lo, hi = _top_sq_brackets(sq, kept, np.zeros(size, dtype=np.int64), 1)
        with mp.workdps(50):
            # M^T M = D**2 + (p - k_i - k_j) w_i w_j, with w_i**2 = sq_i exactly
            w = [mp.sqrt(mp.mpf(float(v))) for v in sq]
            gram = mp.matrix(size, size)
            for i in range(size):
                for j in range(size):
                    gram[i, j] = (p - int(kept[i]) - int(kept[j])) * w[i] * w[j]
                gram[i, i] += w[i] ** 2
            top = max(mp.eigsy(gram, eigvals_only=True))
            tiny = mp.mpf(10) ** -40
            assert mp.mpf(float(lo[0])) * (1 - tiny) <= top <= mp.mpf(float(hi[0])) * (1 + tiny)


def test_batched_brackets_hold_the_maximum(rng):
    groups = [random_coset(rng, size, p, tied=True) for size, p in coset_cases(rng)[:30]]
    sq = np.concatenate([g[0] for g in groups])
    kept = np.concatenate([g[1] for g in groups])
    ids = np.concatenate([np.full(g[0].size, i) for i, g in enumerate(groups)])
    lo, hi = _top_sq_brackets(sq, kept, ids, len(groups))
    refs = np.array([dense_top_sq(*g) for g in groups])
    sizes = np.array([g[0].size for g in groups])
    slack = sizes * U * refs
    assert np.all(lo - slack <= refs) and np.all(refs <= hi + slack)
    # groups that cannot hold the maximum may stop early; the top one may not
    top = int(np.argmax(refs))
    assert hi[top] - lo[top] <= 1e-12 * hi[top]
    assert lo.max() <= refs.max() * (1 + sizes.max() * U)


def dense_oracle(alg, trunc_x):
    """Value and coset statistics by one dense SVD per coset."""
    window = enumerate_below(alg.params, trunc_x, cap=10**6)
    log_w = -alg.params.log_inv_omega
    cosets = {}
    for e, h in zip(window.exponent_array.tolist(), window.members):
        key = tuple(hj % m for hj, m in zip(h, alg.grid.mesh))
        cosets.setdefault(key, []).append(e)
    worst = 0.0
    for group in cosets.values():
        exponents = np.array(group)
        sq = np.exp(exponents * log_w)
        worst = max(worst, dense_top_sq(sq, exponents < alg.threshold))
    return math.sqrt(worst), len(cosets), max(len(g) for g in cosets.values())


def criterion_07_instances():
    specs = [
        ((1,), (1,), 0.3), ((1,), (1,), 0.1), ((1,), (1,), 0.02),
        ((1,), (2,), 0.2), ((1,), (2,), 0.03), ((1.5,), (1.5,), 0.1),
        ((1, 1), (1, 1), 0.3), ((1, 1), (1, 1), 0.15), ((1, 2), (1, 2), 0.2),
        ((1, 2), (1, 2), 0.05), ((1, 3), (1, 1), 0.2), ((1.5, 2), (1, 1.5), 0.1),
        ((1, 1, 1), (1, 1, 2), 0.3), ((1, 2, 4), (1, 1, 2), 0.2),
        ((1, 2, 4), (1, 2, 4), 0.15), ((1, 2, 6), (1, 2, 4), 0.1),
        ((2, 3, 5), (1, 2, 2), 0.2), ((1, 1, 2), (1, 2, 2), 0.25),
        ((1, 4, 9), (2, 2, 2), 0.1), ((1, 2, 2), (1.5, 1.5, 2), 0.2),
    ]
    for a_terms, b_terms, eps in specs:
        params = make_params(0.5, a_terms, b_terms)
        choice = mesh_for_accuracy(params, eps, cap_n=10**9)
        alg = build_std_algorithm(params, choice.M, choice.grid)
        yield alg, alg.threshold + 8.0 * math.log(10.0) / params.log_inv_omega


def aliased_instances(rng):
    # criterion 09's mesh-3 algorithms at s = 1, 2 (cosets up to 221) and
    # random small instances with several kept members per coset
    for s in (1, 2):
        params = make_params(0.5, (1,) * s, (1,) * s)
        alg = build_std_algorithm(params, 4.0, RegularGrid((3,) * s))
        yield alg, alg.threshold + 20.0 / params.log_inv_omega
    for _ in range(10):
        params, _ = random_instance(rng, s_max=2, x_max=6.0, work_cap=4_000)
        mesh = tuple(int(v) for v in rng.integers(1, 4, size=params.s))
        alg = build_std_algorithm(params, float(rng.uniform(4.0, 30.0)), RegularGrid(mesh))
        yield alg, 3.0 * alg.threshold


def test_value_matches_dense_svd(rng):
    instances = list(criterion_07_instances()) + list(aliased_instances(rng))
    for alg, trunc_x in instances:
        oracle = exact_worst_case_error(alg, trunc_x, cap_set=10**6, coset_cap=4000)
        value, coset_count, largest = dense_oracle(alg, trunc_x)
        assert oracle.value == pytest.approx(value, rel=1e-12)
        assert oracle.value <= value * (1 + 1e-14)  # rounded down
        assert math.sqrt(oracle.value**2 + oracle.slack_sq) >= value
        assert (oracle.coset_count, oracle.largest_coset) == (coset_count, largest)


def test_coset_cap_reports_the_largest_coset():
    params = make_params(0.5, (1, 1), (1, 1))
    alg = build_std_algorithm(params, 4.0, RegularGrid((3, 3)))
    trunc_x = alg.threshold + 20.0 / params.log_inv_omega
    largest = exact_worst_case_error(alg, trunc_x).largest_coset
    with pytest.raises(CapExceeded) as err:
        exact_worst_case_error(alg, trunc_x, coset_cap=largest - 1)
    assert err.value.needed == largest


@pytest.mark.parametrize("trunc_x", [40.0, 60.0, 80.0, 120.0])
def test_slack_covers_the_mass_beyond_the_window(trunc_x):
    half = mp.mpf("0.5")
    with mp.workdps(40):
        # s = 1, a = b = 1: the mass beyond is 2 * sum_{h >= x} omega**h
        params = make_params(0.5, (1,), (1,))
        alg = build_std_algorithm(params, 4.0, RegularGrid((3,)))
        beyond = 2 * half ** int(math.ceil(trunc_x)) / (1 - half)
        assert mp.mpf(exact_worst_case_error(alg, trunc_x).slack_sq) >= beyond

        # s = 2, a = (1, 2), b = 1: total product minus the window, both exact
        params = make_params(0.5, (1, 2), (1, 1))
        alg = build_std_algorithm(params, 4.0, RegularGrid((3, 3)))
        total = mp.mpf(1)
        for a in (1, 2):
            q = half**a
            total *= 1 + 2 * q / (1 - q)
        window = enumerate_below(params, trunc_x, cap=10**6)
        inside = mp.fsum(half ** (abs(h1) + 2 * abs(h2)) for h1, h2 in window.members)
        assert mp.mpf(exact_worst_case_error(alg, trunc_x).slack_sq) >= total - inside


@pytest.mark.parametrize(
    "omega,M,mesh,trunc_x",
    [(0.5, 30.0, (1,), 7.0), (0.8, 30.0, (1,), 18.0), (0.8, 100.0, (2,), 25.0), (0.9, 100.0, (1,), 50.0)],
)
def test_bracket_covers_a_deeper_window(omega, M, mesh, trunc_x):
    # Coarse meshes put many kept members in one coset; the mass beyond
    # the window then reaches each of their rows, and the bracket must
    # still hold the (larger) value of a much deeper window.
    params = make_params(omega, (1,), (1,))
    alg = build_std_algorithm(params, M, RegularGrid(mesh))
    shallow = exact_worst_case_error(alg, trunc_x)
    deep = exact_worst_case_error(alg, 6.0 * trunc_x)
    assert shallow.value <= deep.value <= shallow.upper


def test_mesh_sides_past_int64_give_the_same_result():
    # every side here is above twice the window's reach, so each window
    # member is alone in its coordinate's residue class and the cosets,
    # their order and the brackets do not depend on the side
    params = make_params(0.5, (1, 1), (1, 1))
    results = [
        exact_worst_case_error(build_std_algorithm(params, 4.0, RegularGrid((m, 3))))
        for m in (10**300, 10**19, 2**62)
    ]
    assert results[0] == results[1] == results[2]


def test_large_scaled_weights_do_not_overflow():
    # a_7 = 3**7 puts the trace bound's series at c = (1 - theta) a_7 log 2
    # ~ 758, where 1 / expm1(c) overflows
    params = KorobovParams(omega=0.5, a=GeometricFamily(1.0, 3.0), b=GeometricFamily(1.0, 2.0), s=7)
    oracle = exact_worst_case_error(threshold_algorithm(params, 50.0, 0.5))
    assert math.isfinite(oracle.value) and math.isfinite(oracle.slack_sq)
    assert oracle.slack_sq >= 0.0
