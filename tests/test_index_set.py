import math

import pytest

from conftest import brute_force_count, brute_force_members, make_params, random_instance
from korobov.errors import CapExceeded, InvalidParameterError
from korobov.index_set import (
    count_below,
    count_growth_bound,
    count_product_bounds,
    enumerate_below,
    exponent_budget,
    last_active_coordinate,
    weight_exponent,
)
from korobov.params import (
    ConstantFamily,
    ExplicitFamily,
    ExponentialFamily,
    GeometricFamily,
    KorobovParams,
    validate,
)


def test_weight_exponent_examples():
    p = make_params(0.5, (1, 1), (1, 1))
    assert weight_exponent(p, (2, -1)) == 3
    assert weight_exponent(p, (0, 0)) == 0
    p1 = make_params(0.5, (1,), (2,))
    assert weight_exponent(p1, (3,)) == 9
    with pytest.raises(InvalidParameterError):
        weight_exponent(p, (1,))


def test_exponent_budget_examples():
    e = math.exp(1)
    assert exponent_budget(1 / e, 1 / e) == pytest.approx(2.0, abs=1e-14)
    assert exponent_budget(0.25, 0.5) == pytest.approx(1.0, abs=1e-15)
    assert exponent_budget(0.5, 0.1) == pytest.approx(2 * math.log(10) / math.log(2), rel=1e-15)
    with pytest.raises(InvalidParameterError):
        exponent_budget(0.5, 1.0)
    with pytest.raises(InvalidParameterError):
        exponent_budget(1.5, 0.5)


def test_count_examples():
    assert count_below(make_params(0.5, (1,), (1,)), 3.5) == 7
    assert count_below(make_params(0.5, (1, 1), (1, 1)), 2.1) == 13
    p = make_params(0.5, (2, 3), (1.5, 1))
    assert count_below(p, 1.0) == 1  # x in (0, a_1]
    assert count_below(p, 0.0) == 0
    assert count_below(p, -3.0) == 0


def test_infinite_budget_raises_and_nan_holds_nothing():
    p = make_params(0.5, (1, 1.5), (1, 2))
    for read in (count_below, enumerate_below):
        with pytest.raises(InvalidParameterError, match="x = inf"):
            read(p, math.inf)
    assert count_below(p, math.nan) == 0  # no E(h) < nan holds
    assert enumerate_below(p, math.nan).count == 0
    assert count_below(p, -math.inf) == 0


def test_count_matches_dimension_one_closed_form():
    p = make_params(0.5, (1.7,), (1.3,))
    for x in (0.5, 1.7, 2.0, 9.42, 31.0):
        expected = 2 * math.ceil((x / 1.7) ** (1 / 1.3)) - 1 if x > 0 else 0
        assert count_below(p, x) == expected


def test_count_oracle_equivalence_random(rng):
    for _ in range(60):
        params, x = random_instance(rng, s_max=4, x_max=30.0, work_cap=60_000)
        assert count_below(params, x) == brute_force_count(params, x)


def test_count_monotone_and_inactive_coordinates(rng):
    for _ in range(20):
        params, x = random_instance(rng, s_max=3, x_max=20.0, work_cap=30_000)
        y = x * float(rng.uniform(1.0, 1.3))
        assert count_below(params, x) <= count_below(params, y)
    # adding a coordinate with a_j >= x leaves the count unchanged
    lo = make_params(0.5, (1, 2), (1, 1))
    hi = make_params(0.5, (1, 2, 50), (1, 1, 1))
    for x in (1.5, 3.0, 10.0, 49.0):
        assert count_below(lo, x) == count_below(hi, x)


def test_enumerate_examples_and_order():
    p = make_params(0.5, (1,), (1,))
    got = enumerate_below(p, 2.0)
    assert got.members == ((0,), (-1,), (1,))
    assert got.count == 3

    assert enumerate_below(p, 0.0).members == ()

    p2 = make_params(0.5, (1, 2), (1, 1))
    got2 = enumerate_below(p2, 2.5)
    # oracle-verified list: (+-1, +-1) is excluded since 1 + 2 >= 2.5
    assert set(got2.members) == {
        (0, 0), (-1, 0), (1, 0), (-2, 0), (2, 0), (0, -1), (0, 1),
    }
    assert got2.count == 7
    exps = got2.exponent_array.tolist()
    assert exps == sorted(exps)
    # ties resolved lexicographically
    tie_block = [h for h in got2.members if weight_exponent(p2, h) == 2.0]
    assert tie_block == sorted(tie_block)


def test_enumerate_matches_brute_force_random(rng):
    for _ in range(25):
        params, x = random_instance(rng, s_max=3, x_max=15.0, work_cap=20_000)
        got = enumerate_below(params, x)
        assert set(got.members) == brute_force_members(params, x)
        assert got.count == count_below(params, x)


def test_enumerate_cap():
    p = make_params(0.5, (1,), (1,))
    with pytest.raises(CapExceeded) as err:
        enumerate_below(p, 100.0, cap=10)
    assert err.value.needed == count_below(p, 100.0)


def test_membership_test_matches_threshold():
    p = make_params(0.5, (1, 2), (1, 1))
    s = enumerate_below(p, 2.5)
    assert (0, 1) in s and (1, 1) not in s


def test_last_active_coordinate():
    geo = validate(KorobovParams(0.5, GeometricFamily(1, 2), ConstantFamily(1), 5))
    assert last_active_coordinate(geo, 5.0) == 2
    const = validate(KorobovParams(0.5, ConstantFamily(1), ConstantFamily(1), 3))
    assert last_active_coordinate(const, 2.0) == math.inf
    tri = validate(
        KorobovParams(0.5, ExplicitFamily((1, 3, 9), GeometricFamily(1 / 3, 3)), ConstantFamily(1), 3)
    )
    assert last_active_coordinate(tri, 3.0) == 1
    with pytest.raises(InvalidParameterError):
        last_active_coordinate(const, 1.0)  # x <= a_1


def test_product_bounds_examples():
    p1 = make_params(0.5, (1,), (1,))
    assert count_product_bounds(p1, 3.5) == (7.0, 7.0)

    p2 = make_params(0.5, (1, 1), (1, 1))
    lower, upper = count_product_bounds(p2, 2.1)
    assert (lower, upper) == (9.0, 25.0)
    assert lower <= count_below(p2, 2.1) <= upper

    with pytest.raises(InvalidParameterError):
        count_product_bounds(p2, 0.5)  # x <= a_1


def test_default_alphas_give_equal_split():
    # with alpha_j = (j-1)/j the lower bound equals the product over
    # 2*ceil((x/(a_j*s))**(1/b_j)) - 1
    p = make_params(0.5, (1, 1.5, 2), (1, 2, 1.5))
    x = 7.3
    lower, _ = count_product_bounds(p, x)
    expected = 1.0
    for j in range(1, 4):
        expected *= 2 * math.ceil((x / (p.a_term(j) * 3)) ** (1 / p.b_term(j))) - 1
    assert lower == pytest.approx(expected, rel=1e-12)


def test_sandwich_random(rng):
    for _ in range(40):
        params, x = random_instance(rng, s_max=4, x_max=25.0, work_cap=40_000)
        if not x > params.a_term(1):
            continue
        lower, upper = count_product_bounds(params, x)
        n = count_below(params, x)
        assert lower <= n <= upper


def test_three_power_s_lower_bound(rng):
    for _ in range(20):
        params, _ = random_instance(rng, s_max=4, x_max=20.0, work_cap=40_000)
        total_a = sum(params.a_term(j) for j in range(1, params.s + 1))
        x = total_a * 1.01
        volume = 1.0
        for j in range(1, params.s + 1):
            volume *= 2 * (math.ceil((x / params.a_term(j)) ** (1 / params.b_term(j))) + 1) + 1
        if volume > 300_000:
            continue
        assert count_below(params, x) >= 3**params.s


def test_growth_bound():
    # a_j = e^j is exactly exp(delta*j) at delta = 1
    p = validate(KorobovParams(0.5, ExponentialFamily(1, 1), GeometricFamily(1, 2), 2))
    x = 4.0
    bound = count_growth_bound(p, x, delta=1.0, j_star=1)
    b_sum = 1 / 2 + 1 / 4
    assert bound == pytest.approx(3 * 4 ** (b_sum + math.log(3)), rel=1e-12)
    assert count_below(p, x) <= bound

    # bound >= 1 barely above a_1
    p1 = validate(KorobovParams(0.5, ExponentialFamily(1, 1), ConstantFamily(1), 1))
    assert count_growth_bound(p1, math.e + 1e-9, 1.0, 1) >= 1.0

    # hypothesis failure is reported with the offending coordinate
    slow = validate(KorobovParams(0.5, GeometricFamily(1, 2), ConstantFamily(1), 8))
    with pytest.raises(InvalidParameterError) as err:
        count_growth_bound(slow, 3.0, delta=1.0, j_star=1)
    assert "a_1" in str(err.value) or "a_" in str(err.value)


def test_growth_bound_dominates_count_random(rng):
    p = validate(KorobovParams(0.5, ExponentialFamily(1, 0.8), GeometricFamily(1, 2), 3))
    for x in (3.0, 5.0, 11.0, 25.0):
        assert count_below(p, x) <= count_growth_bound(p, x, delta=0.8, j_star=1)
