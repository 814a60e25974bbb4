import math

import numpy as np
import pytest

from conftest import make_params, random_instance
from korobov.errors import InvalidParameterError
from korobov.grids import RegularGrid, dual_coset_sum
from korobov.index_set import enumerate_below, weight_exponent
from korobov.params import ConstantFamily, ExplicitFamily, KorobovParams, validate
from korobov.sampling import (
    accuracy_algorithm,
    apply_algorithm,
    build_std_algorithm,
    error_upper_bound,
    exact_worst_case_error,
    gen_error_bound,
    mesh_for_accuracy,
    mesh_for_threshold,
    threshold_algorithm,
)
from korobov.space import FourierPolynomial, basis_function, l2_norm, random_unit_ball


def tight_trunc(alg, digits=14):
    return alg.threshold + digits * math.log(10) / alg.params.log_inv_omega


def test_build_checks_threshold_consistency():
    p = make_params(0.5, (1,), (1,))
    alg = build_std_algorithm(p, 4.0, RegularGrid((3,)))
    assert alg.threshold == pytest.approx(2.0)
    assert set(alg.index_set.members) == {(0,), (-1,), (1,)}
    with pytest.raises(InvalidParameterError):
        build_std_algorithm(p, 1.0, RegularGrid((3,)))


def test_apply_reproduces_functions_it_resolves():
    p = make_params(0.5, (1,), (1,))
    # A(s, 16) = {|h| <= 3}; mesh (9,) separates all cosets within A
    alg = build_std_algorithm(p, 16.0, RegularGrid((9,)))
    f = FourierPolynomial(p, {(-3,): 1j, (0,): 2.0, (2,): 0.5})
    out = apply_algorithm(alg, f)
    for h in alg.index_set.members:
        assert out.coefficient(h) == pytest.approx(f.coefficient(h), abs=1e-12)


def test_apply_annihilates_unseen_frequency():
    p = make_params(0.5, (1,), (1,))
    alg = build_std_algorithm(p, 4.0, RegularGrid((5,)))
    g = (7,)  # outside A = {|h|<2} and not congruent to any member mod 5
    f = basis_function(p, g)
    out = apply_algorithm(alg, f)
    assert all(abs(c) <= 1e-12 for c in out.coefficients.values())
    err = l2_norm(f - out)
    assert err == pytest.approx(0.5 ** (weight_exponent(p, g) / 2), abs=1e-12)


def test_apply_parseval_decomposition(rng):
    p = make_params(0.5, (1, 2), (1, 1))
    alg = build_std_algorithm(p, 8.0, RegularGrid((4, 3)))
    window = enumerate_below(p, alg.threshold * 3 + 2)
    for seed in range(5):
        f = random_unit_ball(p, window, seed=seed)
        out = apply_algorithm(alg, f)
        lhs = l2_norm(f - out) ** 2
        keep = set(alg.index_set.members)
        rhs = sum(
            abs(c) ** 2 for h, c in f.coefficients.items() if h not in keep
        ) + sum(
            abs(f.coefficient(h) - dual_coset_sum(alg.grid, f, h)) ** 2
            for h in alg.index_set.members
        )
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-14)


def test_error_upper_bound_worked_example():
    p = make_params(0.5, (1,), (1,))
    alg = build_std_algorithm(p, 4.0, RegularGrid((2,)))
    d = 4.0 * (1.0 + 1.0 / math.log(2.0))
    assert error_upper_bound(alg) == pytest.approx(math.sqrt(0.25 + 16.0 * d * 2.0), rel=1e-10)


def test_error_upper_bound_tends_to_truncation_floor():
    p = make_params(0.5, (1,), (1,))
    alg = build_std_algorithm(p, 4.0, RegularGrid((4096,)))
    assert error_upper_bound(alg) == pytest.approx(0.5, rel=1e-6)


def test_oracle_matches_dense_eigensolve():
    p = make_params(0.5, (1,), (1,))
    alg = build_std_algorithm(p, 4.0, RegularGrid((3,)))
    oracle = exact_worst_case_error(alg, trunc_x=20.5)

    hs = list(range(-20, 21))
    w = np.array([0.5 ** (abs(h) / 2) for h in hs])
    rows = []
    for h in hs:
        if abs(h) < 2:  # kept set
            rows.append([(h == g) * w[j] - ((g - h) % 3 == 0) * w[j] for j, g in enumerate(hs)])
        else:
            rows.append([(h == g) * w[j] for j, g in enumerate(hs)])
    dense = np.linalg.svd(np.array(rows), compute_uv=False)[0]
    assert oracle.value == pytest.approx(float(dense), rel=1e-12)


def test_oracle_no_aliasing_reduces_to_largest_discarded():
    p = make_params(0.5, (1,), (1,))
    # huge mesh: within the window every coset is a singleton
    alg = build_std_algorithm(p, 4.0, RegularGrid((101,)))
    oracle = exact_worst_case_error(alg, trunc_x=30.0)
    assert oracle.value == pytest.approx(0.5, rel=1e-12)  # sqrt(weight at |h|=2)


def test_oracle_below_bounds_random(rng):
    for _ in range(10):
        params, _ = random_instance(rng, s_max=2, x_max=6.0, work_cap=4_000)
        m_value = float(rng.uniform(1.5, 12.0))
        mesh = tuple(int(v) for v in rng.integers(1, 7, size=params.s))
        alg = build_std_algorithm(params, m_value, RegularGrid(mesh))
        oracle = exact_worst_case_error(alg, tight_trunc(alg))
        gen = gen_error_bound(alg)
        upper = error_upper_bound(alg)
        assert oracle.value <= gen + 1e-9
        assert gen <= upper + 1e-9


@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8])
def test_bound_chain_at_small_eps(eps):
    # criterion 08's chain oracle <= aliasing-sum ceiling <= closed form,
    # down to eps where the kept set has thousands of members and each
    # aliasing weight is ~1e-16 of the member's own weight
    p = make_params(0.5, (1, 1.2), (1, 1.1))
    alg = accuracy_algorithm(p, eps)
    oracle = exact_worst_case_error(alg, tight_trunc(alg, digits=8), coset_cap=4000)
    middle = gen_error_bound(alg)
    upper = error_upper_bound(alg)
    assert oracle.value <= middle * (1 + 1e-9) + 1e-12
    assert middle <= upper * (1 + 1e-9) + 1e-12
    assert middle <= eps


def test_oracle_rejects_bad_truncation():
    p = make_params(0.5, (1,), (1,))
    alg = build_std_algorithm(p, 4.0, RegularGrid((3,)))
    with pytest.raises(InvalidParameterError):
        exact_worst_case_error(alg, trunc_x=1.0)


def test_mesh_for_accuracy_invariants():
    p = make_params(0.5, (1, 1), (1, 2))
    b_sum = 1.5
    for eps in (0.4, 0.1, 0.03):
        choice = mesh_for_accuracy(p, eps)
        assert choice.M == pytest.approx(2.0 / eps**2)
        for mj, b in zip(choice.grid.mesh, (1.0, 2.0)):
            root = choice.m ** (1.0 / (b_sum * b))
            assert mj == max(1, math.floor(root)) or float(mj + 1) ** (b_sum * b) <= choice.m
            assert float(mj) ** (b_sum * b) <= choice.m or mj == 1
        assert choice.grid.n <= choice.m
        alg = build_std_algorithm(p, choice.M, choice.grid)
        assert error_upper_bound(alg) <= eps


def test_mesh_for_accuracy_survives_extreme_accuracy():
    # deep accuracies drive the internal auxiliary quantity below double
    # range; the log-scale path must keep the rule's invariants intact
    p = make_params(0.5, (1,) * 8, (1,) * 8)
    choice = mesh_for_accuracy(p, 1e-30, cap_n=10**400)
    assert choice.grid.n <= choice.m
    assert all(m >= 1 for m in choice.grid.mesh)
    coarser = mesh_for_accuracy(p, 1e-2, cap_n=10**400)
    assert coarser.m < choice.m


def test_mesh_for_accuracy_rejects_bad_eps():
    p = make_params(0.5, (1,), (1,))
    for eps in (0.0, 1.0, -0.5):
        with pytest.raises(InvalidParameterError):
            mesh_for_accuracy(p, eps)


def test_mesh_for_accuracy_polylog_growth():
    p = make_params(0.5, (1,), (1,))
    xs, ys = [], []
    for k in range(1, 7):
        eps = 10.0**-k
        choice = mesh_for_accuracy(p, eps, cap_n=10**9)
        xs.append(math.log(math.log(1.0 + 1.0 / eps)))
        ys.append(math.log(choice.grid.n))
    slope = np.polyfit(xs, ys, 1)[0]
    assert slope <= 1.0 + 0.2


def test_mesh_for_threshold_examples():
    p = validate(KorobovParams(math.exp(-1), ConstantFamily(1), ConstantFamily(1), 1))
    assert mesh_for_threshold(p, math.exp(4), beta=0.5).mesh == (7,)

    big = validate(
        KorobovParams(0.5, ExplicitFamily((1, 10_000.0), "repeat"), ConstantFamily(1), 2)
    )
    mesh = mesh_for_threshold(big, 4.0, beta=0.5).mesh
    assert mesh[1] == 1
    assert all(m % 2 == 1 for m in mesh)


def test_mesh_for_threshold_odd_random(rng):
    for _ in range(10):
        params, _ = random_instance(rng, s_max=3, x_max=10.0, work_cap=10_000)
        m_value = float(rng.uniform(1.5, 100.0))
        beta = float(rng.uniform(0.1, 0.9))
        grid = mesh_for_threshold(params, m_value, beta)
        assert all(m % 2 == 1 for m in grid.mesh)


def test_threshold_algorithm_membership_geometry(rng):
    for _ in range(8):
        params, _ = random_instance(rng, s_max=3, x_max=8.0, work_cap=8_000)
        m_value = float(rng.uniform(1.5, 50.0))
        alg = threshold_algorithm(params, m_value, beta=0.5)
        half = [(m + 1) / 2 for m in alg.grid.mesh]
        for h in alg.index_set.members:
            assert all(abs(hj) < half_j for hj, half_j in zip(h, half))


def test_error_report():
    p = make_params(0.5, (1,), (1,))
    alg = build_std_algorithm(p, 4.0, RegularGrid((3,)))
    assert alg.grid.n == 3 and alg.index_set.count == 3
    assert exact_worst_case_error(alg, tight_trunc(alg)).value <= error_upper_bound(alg) + 1e-9
