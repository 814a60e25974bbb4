"""Certified sums against 40-digit mpmath references."""

import math
import random
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from conftest import make_params
from korobov._series import product_excess, series_ceiling, weight_sum
from korobov.grids import RegularGrid, dual_weight_sum
from korobov.integration import GridRule, worst_case_int_error
from korobov.errors import InvalidParameterError
from korobov.params import ExplicitFamily, ExponentialFamily, GeometricFamily, PowerFamily
from korobov.space import kernel_diagonal, kernel_eval

# Certified upper values sit above the exact value by at most their
# tolerance plus their rounding margins, a few hundred units of 2**-53
# relative to the value.
ROUNDING = 2e-14


def weight_series(omega, a, b, scale=1):
    """sum_{h>=1} omega**(a*(scale*h)**b) with the scale applied exactly."""
    om, a, b, scale = mp.mpf(omega), mp.mpf(a), mp.mpf(b), mp.mpf(scale)
    return mp.nsum(lambda h: om ** (a * (scale * h) ** b), [1, mp.inf])


def nonzero_mass(omega, av, bv, scales):
    """prod_j (1 + 2 S_j) - 1, formed as sum_j 2 S_j prod_{i<j} (1 + 2 S_i)."""
    grown, total = mp.mpf(1), mp.mpf(0)
    for a, b, scale in zip(av, bv, scales):
        rho = 2 * weight_series(omega, a, b, scale)
        total += rho * grown
        grown *= 1 + rho
    return total


@pytest.mark.parametrize("c", [1.0, 0.7, 2.5, 3.0])
@pytest.mark.parametrize("k", [1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0])
def test_power_reciprocal_sum_contains_zeta(c, k):
    for start in (1, 3):
        interval = PowerFamily(c, k).reciprocal_sum(start)
        with mp.workdps(40):
            exact = mp.zeta(k, start) / c  # Hurwitz zeta: sum_{j >= start} j**-k
            assert mp.mpf(interval.lo) <= exact <= mp.mpf(interval.hi)
        # the width is the integral bracket of the tail, N**-k / c at N = 1e5
        assert interval.hi - interval.lo <= 1e-7 * interval.hi


def one_array_reciprocal_sum(c, k, start):
    """PowerFamily.reciprocal_sum with its partial sum taken over one array
    of every term, as it was before the terms were fed to fsum in blocks."""
    n_partial = max(start, 100_000)
    partial = math.fsum((1.0 / (c * np.arange(start, n_partial + 1, dtype=float) ** k)).tolist())
    tail_hi = n_partial ** (1.0 - k) / (c * (k - 1.0))
    tail_lo = (n_partial + 1.0) ** (1.0 - k) / (c * (k - 1.0))
    err = 8.0 * 2.0**-53 * partial + (abs((1.0 - k) * math.log(n_partial + 1.0)) + 8.0) * 2.0**-53 * tail_hi
    return math.nextafter(partial + tail_lo - err, -math.inf), math.nextafter(partial + tail_hi + err, math.inf)


@pytest.mark.parametrize("c,k,start", [(1.5, 1.3, 1), (1.0, 2.0, 3), (2.0, 1.01, 7), (0.001, 1.2, 5), (1.0, 3.5, 100_000)])
def test_power_reciprocal_sum_in_blocks_is_the_one_array_sum(c, k, start):
    # fsum is exactly rounded, so its input's blocking cannot move the sum
    interval = PowerFamily(c, k).reciprocal_sum(start)
    assert (interval.lo, interval.hi) == one_array_reciprocal_sum(c, k, start)


def test_power_reciprocal_sum_does_not_hold_every_term():
    # the 100,000 terms as one array and its list held 3.8 MiB
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        PowerFamily(1.5, 1.3).reciprocal_sum()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start <= 0.5 * 2**20


@pytest.mark.parametrize("c", [0.7, 1.0, 1.3, 2.5, 3.0])
@pytest.mark.parametrize("r", [1.5, 2.0, 3.0, 7.0])
def test_geometric_reciprocal_sum_contains_closed_form(c, r):
    for start in (1, 2, 5):
        interval = GeometricFamily(c, r).reciprocal_sum(start)
        with mp.workdps(40):
            exact = mp.mpf(r) ** (1 - start) / (mp.mpf(c) * (mp.mpf(r) - 1))
            assert mp.mpf(interval.lo) <= exact <= mp.mpf(interval.hi)
        assert interval.hi - interval.lo <= 4e-16 * interval.hi


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 2.0])
def test_exponential_reciprocal_sum_contains_closed_form(alpha):
    for start in (1, 2, 5):
        interval = ExponentialFamily(1.0, alpha).reciprocal_sum(start)
        with mp.workdps(40):
            q = mp.exp(-mp.mpf(alpha))
            exact = q**start / (1 - q)
            assert mp.mpf(interval.lo) <= exact <= mp.mpf(interval.hi)
        assert interval.hi - interval.lo <= 1e-14 * interval.hi


def test_explicit_head_plus_power_tail_contains_exact_sum():
    values = (1.0, 1.1, 1.3, 1.7, 2.9)
    family = ExplicitFamily(values, PowerFamily(0.7, 3.0))
    interval = family.reciprocal_sum()
    with mp.workdps(40):
        exact = mp.fsum(1 / mp.mpf(v) for v in values) + mp.zeta(3, len(values) + 1) / mp.mpf(0.7)
        assert mp.mpf(interval.lo) <= exact <= mp.mpf(interval.hi)


@pytest.mark.parametrize(
    "omega,a,b", [(0.5, 1.0, 1.0), (0.5, 2.0, 1.5), (0.9, 1.0, 1.0), (0.99, 1.0, 2.0), (0.1, 3.0, 4.0)]
)
def test_weight_sum_upper_is_a_tight_upper_value(omega, a, b):
    bracket = weight_sum(omega, a, b, tol=1e-16)
    upper = bracket.hi
    with mp.workdps(40):
        exact = mp.nsum(lambda h: mp.mpf(omega) ** (a * h**b), [1, mp.inf])
        assert exact <= mp.mpf(upper) <= exact * (1 + mp.mpf(1e-12))
        # the lower end drops the tail, below tol, and subtracts the margins
        assert exact * (1 - mp.mpf(1e-12)) - mp.mpf(1e-16) <= mp.mpf(bracket.lo) <= exact


@pytest.mark.parametrize("m", [1, 3, 17, 124])
@pytest.mark.parametrize("omega,a,b", [(0.5, 1.0, 1.0), (0.6, 1.5, 1.3), (0.9, 1.2, 2.0)])
def test_weight_sum_upper_covers_the_rounding_of_scaled_weights(omega, a, b, m):
    # the dual lattice's halved weights a * (m/2)**b are rounded before
    # the series sees them; the margin must cover that
    upper = weight_sum(omega, a * (m / 2.0) ** b, b, tol=1e-16).hi
    with mp.workdps(40):
        exact = weight_series(omega, a, b, mp.mpf(m) / 2)
        assert exact <= mp.mpf(upper) <= exact * (1 + ROUNDING) + mp.mpf(1e-16)


@pytest.mark.parametrize("b", [1.0, 1.5, 3.0])
@pytest.mark.parametrize("c", [1e-3, 0.05, 0.7, 3.0, 40.0, 758.0])
def test_series_ceiling_bounds_the_series(c, b):
    ceiling = series_ceiling(c, b)
    assert math.isfinite(ceiling)
    with mp.workdps(40):
        exact = mp.nsum(lambda h: mp.exp(-mp.mpf(c) * h ** mp.mpf(b)), [1, mp.inf])
        assert exact <= mp.mpf(ceiling)


@pytest.mark.parametrize(
    "omega,a,b",
    [(0.5, (1, 1), (1, 1)), (0.6, (1, 1.5), (1, 1.3)), (0.9, (1, 2, 3), (1, 1, 2))],
)
@pytest.mark.parametrize("spread", [(1, 1), (2, 1), (5, 4), (31, 17), (124, 124)])
def test_dual_weight_sum_is_a_tight_upper_value(omega, a, b, spread):
    # (124, 124) on the first space puts the mass near 8.7e-19, far below
    # the rounding of 1 + mass
    mesh = spread + (3,) * (len(a) - 2)
    tol = 1e-14
    got = dual_weight_sum(make_params(omega, a, b), RegularGrid(mesh), tol=tol)
    with mp.workdps(40):
        exact = nonzero_mass(omega, a, b, [mp.mpf(m) / 2 for m in mesh])
        assert 0 < exact <= mp.mpf(got) <= exact * (1 + ROUNDING) + tol


@pytest.mark.parametrize("trunc_x", [40.0, 60.0, 90.0, 120.0])
def test_int_tail_covers_the_dual_mass_beyond_the_window(trunc_x):
    # s = 1, a = b = 1, mesh 3: the dual points are 3k, so the squared
    # error is 2 * sum_{k >= 1} 2**(-3k) = 2/7 whatever trunc_x.  The
    # closed form puts the mass beyond trunc_x into value itself, so the
    # bracket holds the whole mass and tail_sq is a rounding width only
    res = worst_case_int_error(make_params(0.5, (1,), (1,)), GridRule(RegularGrid((3,))), trunc_x)
    with mp.workdps(40):
        total = mp.mpf(2) / 7
        value_sq = mp.mpf(res.value) ** 2
        assert value_sq <= total <= value_sq + mp.mpf(res.tail_sq)
    assert res.tail_sq <= 1e-13 * res.value**2


@pytest.mark.parametrize(
    "omega,mesh,trunc_x",
    [(0.5, (3,), 120.0), (0.9, (1,), 800.0), (0.5, (1, 1), 150.0), (0.6, (2, 1), 150.0)],
)
def test_int_bracket_holds_in_deep_windows(omega, mesh, trunc_x):
    # a = b = 1: the squared error is prod_j (1 + 2 q_j / (1 - q_j)) - 1,
    # q_j = omega**m_j; deep windows leave less mass beyond than the
    # rounding of value**2, which tail_sq must cover as well
    params = make_params(omega, (1,) * len(mesh), (1,) * len(mesh))
    res = worst_case_int_error(params, GridRule(RegularGrid(mesh)), trunc_x)
    with mp.workdps(40):
        q = [mp.mpf(omega) ** m for m in mesh]
        total = mp.fprod(1 + 2 * qj / (1 - qj) for qj in q) - 1
        assert mp.mpf(res.value) ** 2 + mp.mpf(res.tail_sq) >= total


@pytest.mark.parametrize(
    "omega,a,b",
    [(0.5, (1,), (1,)), (0.5, (1, 1), (1, 1)), (0.6, (1, 1.5), (1, 1.3)), (0.9, (1, 2, 3), (1, 1, 2))],
)
@pytest.mark.parametrize("tol", [1e-14, 1e-10])
def test_kernel_diagonal_is_a_tight_upper_value(omega, a, b, tol):
    got = kernel_diagonal(make_params(omega, a, b), tol=tol)
    with mp.workdps(40):
        exact = 1 + nonzero_mass(omega, a, b, [1] * len(a))
        assert exact <= mp.mpf(got) <= exact * (1 + ROUNDING) + tol


def random_rhos(rng, s):
    """s factors' rho: of order one, far below it, or near 1e-300."""
    return [rng.choice((1.0, 1e-8, 1e-300)) * rng.uniform(0.1, 10.0) for _ in range(s)]


@pytest.mark.parametrize("s", range(1, 9))
def test_product_excess_is_relatively_accurate(s):
    # prod_j (1 + rho_j) - 1 would cancel to 0 at rho near 1e-300; the
    # recurrence keeps it within the (4 s + 4) u nonzero_mass widens by
    rng = random.Random(s)
    for _ in range(200):
        rhos = random_rhos(rng, s)
        exact = math.prod(1 + Fraction(r) for r in rhos) - 1
        got = Fraction(product_excess(rhos))
        assert abs(got - exact) <= (4 * s + 4) * Fraction(2) ** -53 * exact


@pytest.mark.parametrize("s", [1, 3, 8])
def test_product_excess_on_arrays_matches_one_call_per_element(s):
    rng = random.Random(100 + s)
    rows = [random_rhos(rng, s) for _ in range(50)]
    columns = [np.array(column) for column in zip(*rows)]
    assert product_excess(columns).tolist() == [product_excess(row) for row in rows]


SERIES_CALLS = {
    "kernel_diagonal": lambda params, tol: kernel_diagonal(params, tol=tol),
    "dual_weight_sum": lambda params, tol: dual_weight_sum(params, RegularGrid((3, 2)), tol=tol),
    "kernel_eval": lambda params, tol: kernel_eval(params, [0.1, 0.2], [0.3, 0.7], tol=tol),
}


# 5e-324 is positive, but each factor's share of it is zero
@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, 5e-324])
@pytest.mark.parametrize("call", SERIES_CALLS)
def test_a_tolerance_that_is_not_positive_raises_before_any_term(call, tol):
    params = make_params(0.5, (1, 2), (1, 1))
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParameterError) as err:
            SERIES_CALLS[call](params, tol)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert err.value.code == "term_undefined"
    assert peak < 2**20
