import math

import numpy as np
import pytest

from conftest import brute_force_members, make_params, random_instance
from korobov.errors import InvalidParameterError
from korobov.index_set import exponent_budget, weight_exponent
from korobov.space import basis_function, l2_norm, norm, random_unit_ball
from korobov.index_set import enumerate_below
from korobov.spectra import (
    eigenvalue_tail_bound,
    information_complexity,
    nth_minimal_error,
    top_eigenvalues,
    truncate_to_accuracy,
)


def brute_force_spectrum(params, k, window_x):
    """Sort the weights of all frequencies in a generous window."""
    members = brute_force_members(params, window_x)
    pairs = sorted(
        ((weight_exponent(params, h), h) for h in members), key=lambda t: (t[0], t[1])
    )
    return [(params.omega ** e, h) for e, h in pairs[:k]]


def test_top_eigenvalues_examples():
    p = make_params(0.5, (1,), (1,))
    spectrum = top_eigenvalues(p, 5)
    assert spectrum.eigenvalues == (1.0, 0.5, 0.5, 0.25, 0.25)
    assert spectrum.indices == ((0,), (-1,), (1,), (-2,), (2,))

    p2 = make_params(0.5, (1, 2), (1, 1))
    spec2 = top_eigenvalues(p2, 3)
    assert spec2.eigenvalues == (1.0, 0.5, 0.5)
    assert spec2.indices == ((0, 0), (-1, 0), (1, 0))

    one = top_eigenvalues(p2, 1)
    assert (one.eigenvalues, one.indices) == ((1.0,), ((0, 0),))


def test_top_eigenvalues_against_brute_force(rng):
    for _ in range(12):
        params, _ = random_instance(rng, s_max=3, x_max=10.0, work_cap=20_000)
        window = 9.0 / params.log_inv_omega + sum(
            params.a_term(j) for j in range(1, params.s + 1)
        )
        expected = brute_force_spectrum(params, 40, window)
        if len(expected) < 40:
            continue
        got = top_eigenvalues(params, 40)
        assert got.indices == tuple(h for _, h in expected)
        assert np.allclose(got.eigenvalues, [lam for lam, _ in expected], rtol=1e-14)


def test_nth_minimal_error():
    p = make_params(0.5, (1,), (1,))
    assert nth_minimal_error(p, 0) == 1.0
    assert nth_minimal_error(p, 1) == pytest.approx(math.sqrt(0.5), rel=1e-15)
    errors = [nth_minimal_error(p, n) for n in range(12)]
    assert all(e2 <= e1 for e1, e2 in zip(errors, errors[1:]))
    with pytest.raises(InvalidParameterError):
        nth_minimal_error(p, -1)


def test_information_complexity_examples():
    p = make_params(0.5, (1,), (1,))
    eps = math.sqrt(0.3)  # keeps weights > 0.3: {0, +-1}
    assert information_complexity(p, eps) == 3
    assert information_complexity(p, 0.999) == 1


def test_complexity_error_duality(rng):
    for _ in range(8):
        params, _ = random_instance(rng, s_max=3, x_max=10.0, work_cap=20_000)
        spectrum = top_eigenvalues(params, 250)
        for _ in range(12):
            eps = float(rng.uniform(0.05, 0.95))
            if any(abs(eps * eps - lam) < 1e-9 for lam in spectrum.eigenvalues):
                continue
            n = information_complexity(params, eps)
            if n >= len(spectrum) - 1:
                continue
            assert n == sum(1 for lam in spectrum.eigenvalues if lam > eps * eps)
            assert nth_minimal_error(params, n) <= eps
            if n >= 1:
                assert nth_minimal_error(params, n - 1) > eps


def test_truncation_is_optimal_algorithm(rng):
    p = make_params(0.5, (1, 1), (1, 1))
    eps = 0.4
    budget = exponent_budget(p.omega, eps)

    inside = enumerate_below(p, budget)
    f_in = random_unit_ball(p, inside, seed=5)
    assert truncate_to_accuracy(p, eps, f_in).coefficients == f_in.coefficients

    g = (4, 4)
    assert weight_exponent(p, g) >= budget
    e_g = basis_function(p, g)
    out = truncate_to_accuracy(p, eps, e_g)
    assert out.coefficients == {}
    # dropped single term leaks exactly weight**0.5 <= eps in L2
    leak = l2_norm(e_g - out)
    assert leak == pytest.approx(0.5 ** (weight_exponent(p, g) / 2), rel=1e-12)
    assert leak <= eps

    for seed in range(4):
        window = enumerate_below(p, budget * 2 + 1)
        f = random_unit_ball(p, window, seed=seed)
        err = l2_norm(f - truncate_to_accuracy(p, eps, f))
        assert err <= eps * norm(f) + 1e-12


def test_eigenvalue_tail_bound(rng):
    p = make_params(0.5, (1,), (1,))
    # closed form at s=1, eta=0.5
    q = 0.5**0.5
    expected = (1 + 2 * q / (1 - q)) ** 2
    assert eigenvalue_tail_bound(p, 1, 0.5) == pytest.approx(expected, rel=1e-12)
    assert eigenvalue_tail_bound(p, 1, 0.5) >= 1.0

    for _ in range(6):
        params, _ = random_instance(rng, s_max=3, x_max=8.0, work_cap=10_000)
        spectrum = top_eigenvalues(params, 200)
        for eta in (0.3, 0.5, 0.9):
            bounds = [eigenvalue_tail_bound(params, n, eta) for n in range(1, 201)]
            assert all(
                lam <= bound + 1e-12
                for lam, bound in zip(spectrum.eigenvalues, bounds)
            )

    with pytest.raises(InvalidParameterError):
        eigenvalue_tail_bound(p, 1, 1.0)
