"""Windows below smaller budgets are prefixes of one walk, grouped by one key.

``IndexSet.below(y)`` must be ``enumerate_below(params, y)`` array for
array: the walk prunes on nondecreasing partial sums, so filtering a
larger walk by exponent keeps the same floats in the same order, also on
budgets that sit on a lattice exponent.  ``index_set._nested`` reads every
budget off the largest walk that fits the cap.  ``oracle._coset_key``
folds the coset digits into one int64 that sorts rows as a lexsort of the
digits does.  ``enumerate_below`` counts only where its box passes the
cap, and still reports the true size when the count does too.
"""

import math

import numpy as np
import pytest

from conftest import make_params, random_instance
from korobov.errors import CapExceeded, InvalidParameterError
from korobov.index_set import _exponent, _nested, count_below, enumerate_below
from korobov.oracle import _coset_key
from korobov.params import a_values, b_values


def same_set(got, want):
    assert got.threshold == want.threshold or (math.isnan(got.threshold) and math.isnan(want.threshold))
    assert got.count == want.count == len(got.walk_exponents)
    assert got.walk_exponents.tobytes() == want.walk_exponents.tobytes()
    assert np.array_equal(got.walk_members, want.walk_members)
    assert got.walk_members.shape == want.walk_members.shape


def budgets_below(rng, params, walk):
    """Budgets up to the walk's threshold: drawn, on lattice exponents of
    its members, next to them, at the threshold, at or below 0, NaN."""
    ys = [walk.threshold, 0.0, -1.0, math.nan, 1e-300, float(rng.uniform(0.0, walk.threshold))]
    for row in rng.choice(walk.count, size=min(4, walk.count), replace=False):
        e = _exponent(a_values(params), b_values(params), walk.walk_members[row].tolist())
        ys += [e, math.nextafter(e, math.inf), math.nextafter(e, -math.inf)]
    return [y for y in ys if not y > walk.threshold]


def test_below_is_the_walk_at_the_smaller_budget(rng):
    for _ in range(60):
        params, x = random_instance(rng, s_max=5, x_max=25.0, work_cap=40_000)
        walk = enumerate_below(params, x)
        for y in budgets_below(rng, params, walk):
            same_set(walk.below(y), enumerate_below(params, y))
            assert walk.below(y).count == count_below(params, y)


def test_below_a_larger_budget_raises():
    walk = enumerate_below(make_params(0.5, (1, 1.5), (1, 1.2)), 6.0)
    with pytest.raises(InvalidParameterError):
        walk.below(math.nextafter(6.0, math.inf))
    with pytest.raises(InvalidParameterError):
        walk.below(math.inf)


def test_nested_sets_are_each_budgets_own(rng):
    for _ in range(30):
        params, x = random_instance(rng, s_max=4, x_max=20.0, work_cap=20_000)
        xs = [x, 0.7 * x, 0.3 * x, x, 0.0]
        cap = count_below(params, 0.7 * x)  # fits 0.7 x, not x (unless equal)
        sets = _nested(params, xs, cap)
        for y in xs:
            if count_below(params, y) > cap:
                assert isinstance(sets[y], CapExceeded) and sets[y].needed == count_below(params, y)
            else:
                same_set(sets[y], enumerate_below(params, y))


def test_enumerate_below_errors_and_true_sizes():
    params = make_params(0.5, (1, 1), (1, 1))
    with pytest.raises(InvalidParameterError):
        enumerate_below(params, math.inf)
    assert enumerate_below(params, math.nan).count == 0
    # the box below 3 is 5 x 5 = 25; the set is the l1 ball of radius 2, 13
    assert enumerate_below(params, 3.0, cap=13).count == 13  # box passes, count does not
    with pytest.raises(CapExceeded) as err:
        enumerate_below(params, 3.0, cap=12)  # both pass
    assert err.value.needed == 13
    with pytest.raises(CapExceeded) as err:
        enumerate_below(params, 40.0, cap=24)
    assert err.value.needed == count_below(params, 40.0)


@pytest.mark.parametrize("s", [1, 2, 3, 7, 20, 40])
@pytest.mark.parametrize("rows", [0, 1, 2, 300])
def test_coset_key_orders_rows_as_the_lexsort(rng, s, rows):
    for side_bits in (2, 12, 40):
        # 40-bit sides pass 2**62 after one column and 12-bit ones after
        # five: the running key is re-ranked, often more than once
        sides = rng.integers(1, 2**side_bits, size=s)
        digits = rng.integers(0, sides, size=(rows, s))
        if rows > 2:  # repeated rows and repeated prefixes
            digits[rows // 2 :] = digits[: rows - rows // 2]
            digits[::3, : s // 2] = digits[0, : s // 2]
        key = _coset_key(digits.astype(np.int64))
        assert key.dtype == np.int64 and key.shape == (rows,)
        order = np.lexsort(digits.T[::-1])
        assert np.array_equal(np.argsort(key, kind="stable"), order)
        ordered = digits[order]
        same_row = np.all(ordered[1:] == ordered[:-1], axis=1)
        assert np.array_equal(key[order][1:] == key[order][:-1], same_row)

