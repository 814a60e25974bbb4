"""The integration error in closed form against 40-digit mpmath.

The dual lattice of a product grid is a product, so the squared
worst-case error is prod_j (1 + 2 S(a_j m_j**b_j, b_j)) - 1 with
S(a, b) = sum_{h>=1} omega**(a*h**b).  ``worst_case_int_error`` brackets
it with no window, so neither ``trunc_x`` nor ``cap`` may move it.
"""

import math

import mpmath as mp
import pytest

from conftest import make_params
from korobov._series import nonzero_mass
from korobov.grids import RegularGrid
from korobov.integration import GridRule, worst_case_int_error


def exact_squared_error(omega, av, bv, mesh):
    """prod_j (1 + 2 S_j) - 1 on the dual weights a_j*(m_j*h)**b_j, as
    sum_j 2 S_j prod_{i<j} (1 + 2 S_i), at 40 digits."""
    with mp.workdps(40):
        om = mp.mpf(omega)
        grown, total = mp.mpf(1), mp.mpf(0)
        for a, b, m in zip(av, bv, mesh):
            a, b, m = mp.mpf(a), mp.mpf(b), mp.mpf(m)
            rho = 2 * mp.nsum(lambda h: om ** (a * (m * h) ** b), [1, mp.inf])
            total += rho * grown
            grown *= 1 + rho
        return total


DEMO = (0.5, (1, 1), (1, 1))
S3 = (0.6, (1.0, 1.37, 1.81), (1.0, 1.13, 1.29))
CASES = [
    (*DEMO, (2, 1)),
    (*DEMO, (2, 3)),
    (*DEMO, (3, 3)),
    (*DEMO, (5, 4)),
    # the deep windows where a summed window read above the true error
    (0.9, (1,), (1,), (1,)),
    (0.6, (1, 1), (1, 1), (2, 1)),
    (*S3, (2, 1, 1)),
    (*S3, (3, 2, 2)),
    (*S3, (4, 3, 2)),
    # leading terms 2**-30 and 0.9**2000: the dropped tails must stay
    # small relative to the mass, not only below an absolute tolerance
    (*DEMO, (30, 30)),
    (0.9, (1, 1), (1, 1), (2000, 2000)),
    # a squared error near 1.9e-37, far below the rounding of 1 + mass;
    # the window at trunc_x = 40 is empty, so a summed window reads 0
    (*DEMO, (124, 124)),
]


def width_bound(omega, av, bv, mesh):
    """Largest tail_sq / value**2 expected: 1e-13, or twice the rounding
    margin (10 |exponent| + 10) u of the leading dual weight's term where
    that is wider; a term as deep as 86 nats carries 869 u on each side."""
    deepest = min(a * m**b for a, b, m in zip(av, bv, mesh)) * -math.log(omega)
    return max(1e-13, 2.2 * (10.0 * deepest + 10.0) * 2.0**-53)


@pytest.mark.parametrize("omega,av,bv,mesh", CASES)
def test_bracket_holds_the_exact_squared_error(omega, av, bv, mesh):
    res = worst_case_int_error(make_params(omega, av, bv), GridRule(RegularGrid(mesh)), 40.0)
    total = exact_squared_error(omega, av, bv, mesh)
    with mp.workdps(40):
        value_sq = mp.mpf(res.value) ** 2
        assert 0 < value_sq <= total <= value_sq + mp.mpf(res.tail_sq)
    # the bracket is a rounding width: margins of the terms, no window tail
    assert res.tail_sq <= width_bound(omega, av, bv, mesh) * res.value**2


@pytest.mark.parametrize("omega,av,bv,mesh", CASES)
def test_trunc_x_does_not_move_the_result(omega, av, bv, mesh):
    params, rule = make_params(omega, av, bv), GridRule(RegularGrid(mesh))
    first = worst_case_int_error(params, rule, 40.0)
    for trunc_x in (1e-3, 0.5, 7.0, 150.0, 800.0):
        assert worst_case_int_error(params, rule, trunc_x) == first


@pytest.mark.parametrize("omega,av,bv,mesh", CASES)
def test_lower_and_upper_mass_bracket_the_product_form(omega, av, bv, mesh):
    scaled = [a * float(m) ** b for a, b, m in zip(av, bv, mesh)]
    mass = nonzero_mass(omega, scaled, bv)
    lower, upper = mass.lo, mass.hi
    total = exact_squared_error(omega, av, bv, mesh)
    with mp.workdps(40):
        assert 0 < mp.mpf(lower) <= total <= mp.mpf(upper)
    # at their own (absolute) tol, the two differ by the margins and by
    # tails below tol
    assert upper - lower <= width_bound(omega, av, bv, mesh) * lower + 1e-14
