import cmath
import math

import numpy as np
import pytest

from conftest import make_params, random_instance
from korobov.errors import InvalidParameterError
from korobov.index_set import enumerate_below, weight_exponent
from korobov.space import (
    FourierPolynomial,
    basis_function,
    evaluate,
    inner,
    kernel_diagonal,
    kernel_eval,
    l2_norm,
    norm,
    random_unit_ball,
)


def naive_evaluate(f, x):
    """Direct term-by-term summation, independent of the vectorized path."""
    total = 0j
    for h, c in f.coefficients.items():
        phase = sum(hj * xj for hj, xj in zip(h, x))
        total += c * cmath.exp(2j * math.pi * phase)
    return total


def test_evaluate_examples():
    p = make_params(0.5, (1, 1), (1, 1))
    const = FourierPolynomial(p, {(0, 0): 1.0})
    for x in ([0.0, 0.0], [0.3, 0.9], [0.77, 0.12]):
        assert evaluate(const, x) == pytest.approx(1.0)

    e_h = basis_function(p, (2, -1))
    w_half = 0.5 ** (weight_exponent(p, (2, -1)) / 2)
    assert evaluate(e_h, [0.0, 0.0]) == pytest.approx(w_half)


def test_evaluate_matches_naive(rng):
    for _ in range(10):
        params, x_budget = random_instance(rng, s_max=3, x_max=8.0, work_cap=5_000)
        support = enumerate_below(params, x_budget)
        if support.count == 0:
            continue
        f = random_unit_ball(params, support, seed=int(rng.integers(0, 2**31)))
        for _ in range(3):
            x = rng.uniform(0.0, 1.0, size=params.s)
            assert evaluate(f, x) == pytest.approx(naive_evaluate(f, x), abs=1e-12)


def test_norm_and_inner():
    p = make_params(0.5, (1, 2), (1, 1))
    for h in [(0, 0), (1, 0), (2, -1)]:
        assert norm(basis_function(p, h)) == pytest.approx(1.0, abs=1e-12)
    assert inner(basis_function(p, (1, 0)), basis_function(p, (0, 1))) == 0
    # single coefficient c at h: norm = |c| * weight(h)**-0.5
    c = 0.3 - 0.4j
    f = FourierPolynomial(p, {(1, 1): c})
    expected = abs(c) * 0.5 ** (-weight_exponent(p, (1, 1)) / 2)
    assert norm(f) == pytest.approx(expected, rel=1e-12)
    assert inner(f, f) == pytest.approx(norm(f) ** 2, rel=1e-12)

    other = make_params(0.5, (1, 2), (1, 2))
    with pytest.raises(InvalidParameterError):
        inner(f, FourierPolynomial(other, {(0, 0): 1}))


def test_arithmetic_and_l2():
    p = make_params(0.5, (1,), (1,))
    f = FourierPolynomial(p, {(0,): 1.0, (1,): 2j})
    g = FourierPolynomial(p, {(1,): -2j, (2,): 1.0})
    total = f + g
    assert total.coefficients == {(0,): 1.0, (1,): 0j, (2,): 1.0}
    diff = f - f
    assert l2_norm(diff) == 0.0
    assert l2_norm(f) == pytest.approx(math.sqrt(5.0))


def test_random_unit_ball_properties(rng):
    p = make_params(0.5, (1, 1), (1, 1))
    support = enumerate_below(p, 3.2)
    f = random_unit_ball(p, support, seed=99)
    assert norm(f) == pytest.approx(1.0, abs=1e-12)
    again = random_unit_ball(p, support, seed=99)
    assert f.coefficients == again.coefficients
    single = random_unit_ball(p, [(0, 0)], seed=1)
    assert abs(single.coefficients[(0, 0)]) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InvalidParameterError):
        random_unit_ball(p, [], seed=0)


def test_kernel_diagonal_value():
    p = make_params(0.5, (1,), (1,))
    # 1 + 2 * sum 2^-h = 3
    assert kernel_eval(p, [0.4], [0.4], tol=1e-13) == pytest.approx(3.0, abs=1e-12)
    assert kernel_diagonal(p) == pytest.approx(3.0, abs=1e-12)


def test_kernel_bounded_by_diagonal(rng):
    for _ in range(8):
        params, _ = random_instance(rng, s_max=3, x_max=5.0, work_cap=2_000)
        diag = kernel_eval(params, [0.0] * params.s, [0.0] * params.s)
        assert diag >= 1.0
        for _ in range(4):
            x = rng.uniform(0, 1, params.s)
            y = rng.uniform(0, 1, params.s)
            assert abs(kernel_eval(params, x, y)) <= diag + 1e-9


def test_kernel_symmetry_and_periodicity(rng):
    p = make_params(0.37, (1, 1.5), (1, 2))
    x = [0.21, 0.63]
    y = [0.87, 0.02]
    assert kernel_eval(p, x, y) == pytest.approx(kernel_eval(p, y, x), rel=1e-12)
    shifted = [x[0] + 1.0, x[1]]
    assert kernel_eval(p, shifted, y) == pytest.approx(kernel_eval(p, x, y), rel=1e-12)


def test_kernel_psd_small_gram(rng):
    for _ in range(10):
        params, _ = random_instance(rng, s_max=3, x_max=5.0, work_cap=2_000)
        pts = rng.uniform(0, 1, size=(5, params.s))
        gram = np.array([[kernel_eval(params, a, b, tol=1e-13) for b in pts] for a in pts])
        eigs = np.linalg.eigvalsh((gram + gram.T) / 2)
        assert eigs.min() >= -1e-9 * np.trace(gram)


def test_reproducing_property(rng):
    for _ in range(6):
        params, budget = random_instance(rng, s_max=3, x_max=6.0, work_cap=4_000)
        support = enumerate_below(params, budget)
        f = random_unit_ball(params, support, seed=int(rng.integers(0, 2**31)))
        x = rng.uniform(0, 1, params.s)
        # kernel section at x, truncated to f's support
        log_w = math.log(params.omega)
        k_x = FourierPolynomial(
            params,
            {
                h: math.exp(weight_exponent(params, h) * log_w)
                * cmath.exp(-2j * math.pi * sum(hj * xj for hj, xj in zip(h, x)))
                for h in f.support
            },
        )
        assert inner(f, k_x) == pytest.approx(evaluate(f, x), abs=1e-10)
