import math

import pytest

from conftest import make_params, random_instance
from korobov.errors import InvalidParameterError
from korobov.grids import RegularGrid
from korobov.index_set import enumerate_below
from korobov.integration import (
    GridRule,
    extremal_integrand,
    integrate,
    small_n_lower_bound,
    worst_case_int_error,
)
from korobov.sampling import apply_algorithm, build_std_algorithm, exact_worst_case_error
from korobov.space import (
    FourierPolynomial,
    basis_function,
    kernel_diagonal,
    l2_norm,
    norm,
    random_unit_ball,
)


def test_integrate_examples():
    p = make_params(0.5, (1, 1), (1, 1))
    rule = GridRule(RegularGrid((2, 3)))
    const = FourierPolynomial(p, {(0, 0): 1.5 - 2j})
    assert integrate(rule, const) == pytest.approx(1.5 - 2j)

    outside = basis_function(p, (1, 1))  # not in the dual lattice
    assert integrate(rule, outside) == pytest.approx(0.0, abs=1e-12)


def test_integrate_equals_dual_lattice_sum(rng):
    p = make_params(0.5, (1, 1), (1, 1))
    rule = GridRule(RegularGrid((3, 4)))
    for seed in range(4):
        window = enumerate_below(p, 9.5)
        f = random_unit_ball(p, window, seed=seed)
        expected = sum(
            c
            for h, c in f.coefficients.items()
            if all(hj % m == 0 for hj, m in zip(h, rule.grid.mesh))
        )
        assert integrate(rule, f) == pytest.approx(expected, abs=1e-11)


def test_worst_case_error_closed_forms():
    p = make_params(0.5, (1,), (1,))
    res = worst_case_int_error(p, GridRule(RegularGrid((2,))), trunc_x=45.0)
    assert res.value == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-11)
    assert res.slack <= 1e-11

    # single-point rule: squared error is the whole nonzero weight mass
    p2 = make_params(0.5, (1, 1), (1, 1))
    res2 = worst_case_int_error(p2, GridRule(RegularGrid((1, 1))), trunc_x=45.0)
    assert res2.value**2 == pytest.approx(kernel_diagonal(p2) - 1.0, rel=1e-10)

    with pytest.raises(InvalidParameterError):
        worst_case_int_error(p, GridRule(RegularGrid((2,))), trunc_x=0.0)


def test_worst_case_error_decreases_with_mesh():
    p = make_params(0.5, (1, 1.5), (1, 1))
    values = []
    for mesh in ((1, 1), (2, 1), (2, 2), (4, 2), (4, 4), (8, 4)):
        values.append(worst_case_int_error(p, GridRule(RegularGrid(mesh)), 40.0).value)
    assert all(b < a for a, b in zip(values, values[1:]))


def test_extremal_integrand_attains_error():
    p = make_params(0.5, (1, 1), (1, 1))
    rule = GridRule(RegularGrid((2, 3)))
    trunc = 40.0
    res = worst_case_int_error(p, rule, trunc)
    f_star = extremal_integrand(p, rule, trunc)
    assert norm(f_star) == pytest.approx(1.0, abs=1e-10)
    achieved = abs(f_star.mean() - integrate(rule, f_star))
    assert achieved == pytest.approx(res.value, rel=1e-9)


def test_induced_rule_is_uniform_grid_rule():
    p = make_params(0.5, (1,), (1,))
    alg = build_std_algorithm(p, 4.0, RegularGrid((3,)))
    assert (0,) in alg.index_set
    rule = GridRule(alg.grid)
    assert rule.grid is alg.grid
    assert rule.weight == pytest.approx(1.0 / 3.0)


def test_induced_rule_error_dominated_by_approximation(rng):
    p = make_params(0.5, (1, 2), (1, 1))
    alg = build_std_algorithm(p, 8.0, RegularGrid((5, 3)))
    assert (0, 0) in alg.index_set
    rule = GridRule(alg.grid)
    window = enumerate_below(p, 14.0)
    for seed in range(5):
        f = random_unit_ball(p, window, seed=seed)
        int_err = abs(f.mean() - integrate(rule, f))
        app_err = l2_norm(f - apply_algorithm(alg, f))
        assert int_err <= app_err + 1e-11

    trunc = alg.threshold + 14 * math.log(10) / p.log_inv_omega
    worst_int = worst_case_int_error(p, rule, trunc)
    worst_app = exact_worst_case_error(alg, trunc)
    assert worst_int.value <= worst_app.upper + 1e-11


def test_small_n_lower_bound():
    p = make_params(0.5, (1, 1), (1, 1))
    assert small_n_lower_bound(p, 3) == pytest.approx(0.25)
    assert small_n_lower_bound(p, 4) is None  # n = 2**s
    assert small_n_lower_bound(p, 9) is None

    for mesh in ((1, 1), (3, 1), (1, 3)):
        rule = GridRule(RegularGrid(mesh))
        if rule.n >= 4:
            continue
        res = worst_case_int_error(p, rule, trunc_x=45.0)
        assert small_n_lower_bound(p, rule.n) <= res.upper + 1e-12


def test_lower_bound_below_grid_error_random(rng):
    for _ in range(10):
        params, _ = random_instance(rng, s_max=3, x_max=6.0, work_cap=4_000)
        mesh = tuple(int(v) for v in rng.integers(1, 3, size=params.s))
        rule = GridRule(RegularGrid(mesh))
        bound = small_n_lower_bound(params, rule.n)
        if bound is None:
            continue
        trunc = 40.0 / params.log_inv_omega + 1.0
        res = worst_case_int_error(params, rule, trunc)
        assert bound <= res.upper + 1e-12
