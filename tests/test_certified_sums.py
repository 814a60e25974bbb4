"""Certified sums against 40-digit mpmath references."""

import mpmath as mp
import pytest

from korobov._series import weight_sum_upper
from korobov.params import ExplicitFamily, PowerFamily


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
    upper = weight_sum_upper(omega, a, b, tol=1e-16)
    with mp.workdps(40):
        exact = mp.nsum(lambda h: mp.mpf(omega) ** (a * h**b), [1, mp.inf])
        assert exact <= mp.mpf(upper) <= exact * (1 + mp.mpf(1e-12))
