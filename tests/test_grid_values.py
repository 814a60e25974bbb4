"""Grid values by sum factorisation against the direct evaluation.

``_grid_values`` computes f at every point of a regular grid one
coordinate at a time; ``evaluate_many`` sums f's Fourier terms at each
point directly.  They must agree everywhere, the sampled quantities built
on the grid values must equal the dual-lattice coset sums (the aliasing
identity of criterion 06), and the evaluation must not need memory
beyond a few n-sized arrays, whatever the size of f's support, nor the
sampled character sums beyond a few block-sized arrays, whatever the
number of coefficients asked for.
"""

import math
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from conftest import make_params, row_major_points
from korobov.errors import CapExceeded, InvalidParameterError
from korobov.grids import (
    DEFAULT_GRID_CAP,
    RegularGrid,
    _grid_values,
    aliased_coefficients,
    dual_coset_sum,
    sample_mean,
)
from korobov.index_set import enumerate_below
from korobov.integration import GridRule, integrate
from korobov.sampling import StdAlgorithm, apply_algorithm, build_std_algorithm
from korobov.space import FourierPolynomial, evaluate_many, random_unit_ball

PARAMS = {s: make_params(0.5, (1.0,) * s, (1.0,) * s) for s in (1, 2, 3)}


@st.composite
def polynomials_on_grids(draw):
    s = draw(st.integers(1, 3))
    mesh = tuple(draw(st.lists(st.integers(1, 8), min_size=s, max_size=s)))
    # frequencies reach past the mesh on both sides, so they alias
    freqs = st.tuples(*(st.integers(-2 * m - 2, 2 * m + 2) for m in mesh))
    parts = st.floats(-1.0, 1.0, allow_nan=False)
    coeffs = draw(st.dictionaries(freqs, st.tuples(parts, parts), max_size=30))
    f = FourierPolynomial(PARAMS[s], {h: complex(re, im) for h, (re, im) in coeffs.items()})
    return RegularGrid(mesh), f


@settings(derandomize=True, max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(polynomials_on_grids())
def test_grid_values_equal_pointwise_evaluation(case):
    grid, f = case
    values = _grid_values(grid, f)
    direct = evaluate_many(f, np.array(row_major_points(grid)))
    assert values.shape == (grid.n,)
    scale = sum(abs(c) for c in f.coefficients.values())
    assert np.max(np.abs(values - direct)) <= 1e-13 * scale


def test_empty_support_gives_zeros():
    values = _grid_values(RegularGrid((3, 1, 4)), FourierPolynomial(PARAMS[3], {}))
    assert values.shape == (12,) and not values.any()


def test_sampled_quantities_are_coset_sums():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(150):
        s = int(rng.integers(1, 4))
        mesh = tuple(int(v) for v in rng.integers(1, 22, size=s))
        if math.prod(mesh) > 10_000:
            continue
        grid = RegularGrid(mesh)
        coeffs = {
            tuple(int(v) for v in rng.integers(-30, 31, size=s)): complex(rng.normal(), rng.normal())
            for _ in range(int(rng.integers(1, 26)))
        }
        f = FourierPolynomial(PARAMS[s], coeffs)
        scale = max(1.0, sum(abs(c) for c in coeffs.values()))
        targets = [tuple(int(v) for v in rng.integers(-8, 9, size=s)) for _ in range(4)]
        zero = (0,) * s
        sampled = aliased_coefficients(grid, f, targets)
        pairs = [(sample_mean(grid, f), zero), (integrate(GridRule(grid), f), zero)]
        pairs += list(zip(sampled, targets))
        for value, h in pairs:
            worst = max(worst, abs(value - dual_coset_sum(grid, f, h)) / scale)
    assert worst <= 1e-11


def test_memory_stays_within_a_few_grid_arrays():
    params = make_params(0.5, (1.0, 1.0, 1.0), (1.0, 1.0, 1.0))
    f = random_unit_ball(params, enumerate_below(params, 9.0), seed=12)
    assert len(f.coefficients) == 833
    assert len({h[0] for h in f.coefficients}) == 17
    grid = RegularGrid((1, 1000, 1000))
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        values = _grid_values(grid, f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values.shape == (grid.n,)
    assert peak - start <= 6 * 16 * grid.n
    # spot-check a few points against the direct sum
    idx = np.array([0, 1, 999, 123_456, 999_999])
    points = np.stack([np.zeros(idx.size), idx // 1000 / 1000, idx % 1000 / 1000], axis=1)
    assert np.max(np.abs(values[idx] - evaluate_many(f, points))) <= 1e-13 * sum(
        abs(c) for c in f.coefficients.values()
    )


def test_transform_memory_does_not_grow_with_the_number_of_coefficients():
    params = make_params(0.5, (1.0, 1.0), (1.0, 1.0))
    kept = enumerate_below(params, 44.0)
    assert kept.count == 3785
    f = random_unit_ball(params, kept, seed=23)
    grid = RegularGrid((64, 64))
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        sampled = aliased_coefficients(grid, f, kept.members)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a few arrays of the 2**16-entry block budget, plus the n values and
    # the |A| outputs; blocks of 4,096 points x |A| peaked at 496 MB here
    assert peak - start <= 64 * 2**16 + 64 * (grid.n + kept.count)
    scale = sum(abs(c) for c in f.coefficients.values())
    for i in (0, 1, 1000, 3784):
        h = kept.members[i]
        assert abs(sampled[i] - dual_coset_sum(grid, f, h)) <= 1e-11 * scale


def _coset_sum_errors(grid, f, hs):
    """Largest gap between sampled coefficients and their coset sums,
    relative to sum |c|."""
    sampled = aliased_coefficients(grid, f, hs)
    assert sampled.shape == (len(hs),)
    coset = {h: dual_coset_sum(grid, f, h) for h in set(hs)}
    scale = max(1.0, sum(abs(c) for c in f.coefficients.values()))
    return max((abs(v - coset[h]) / scale for v, h in zip(sampled, hs)), default=0.0)


def _random_case(rng, mesh, terms, count):
    s = len(mesh)
    f = FourierPolynomial(
        PARAMS[s],
        {tuple(int(v) for v in rng.integers(-9, 10, size=s)): complex(rng.normal(), rng.normal())
         for _ in range(terms)},
    )
    hs = [tuple(int(v) for v in rng.integers(-6, 7, size=s)) for _ in range(count)]
    return RegularGrid(mesh), f, hs


@pytest.mark.parametrize(
    "mesh,count",
    [
        ((3, 5), 2**16 + 3),  # more frequencies than the budget: one point per block
        ((40, 50), 100),  # blocks of 655 points, which do not divide n = 2000
        ((1, 1), 7),  # n = 1
        ((7,), 2**16 // 7),  # blocks of 7 points, one block exactly
        ((3, 3, 3), 2**15),  # two points per block except the last
    ],
    ids=str,
)
def test_block_boundaries_keep_the_aliasing_identity(mesh, count):
    rng = np.random.default_rng(count)
    assert _coset_sum_errors(*_random_case(rng, mesh, 12, count)) <= 1e-11


def test_no_frequencies_give_an_empty_array():
    grid, f, _ = _random_case(np.random.default_rng(1), (4, 6), 5, 0)
    sampled = aliased_coefficients(grid, f, [])
    assert sampled.shape == (0,) and sampled.dtype == complex


# s = 2, true mean 0.5; a one-coordinate grid read e_(0,3) as e_0 and
# returned 1.5, and a three-coordinate one dropped its last coordinate
F_WRONG_GRID = FourierPolynomial(PARAMS[2], {(0, 0): 0.5, (0, 3): 1.0})
WRONG_DIMENSION_CALLS = {
    "sample_mean": lambda grid: sample_mean(grid, F_WRONG_GRID),
    "integrate": lambda grid: integrate(GridRule(grid), F_WRONG_GRID),
    "aliased_coefficients": lambda grid: aliased_coefficients(grid, F_WRONG_GRID, [(0,) * grid.s]),
    "build_std_algorithm": lambda grid: build_std_algorithm(PARAMS[2], 3.0, grid),
    "StdAlgorithm": lambda grid: StdAlgorithm(
        PARAMS[2], 3.0, grid, build_std_algorithm(PARAMS[2], 3.0, RegularGrid((4, 4))).index_set
    ),
}


@pytest.mark.parametrize("mesh", [(4,), (4, 4, 4)], ids=str)
@pytest.mark.parametrize("call", WRONG_DIMENSION_CALLS)
def test_a_grid_of_another_dimension_raises(call, mesh):
    with pytest.raises(InvalidParameterError) as err:
        WRONG_DIMENSION_CALLS[call](RegularGrid(mesh))
    assert err.value.code == "term_undefined"


@pytest.mark.parametrize("h", [(1,), (1, 2, 3)], ids=str)
def test_a_frequency_of_another_length_raises(h):
    with pytest.raises(InvalidParameterError) as err:
        aliased_coefficients(RegularGrid((4, 4)), F_WRONG_GRID, [(0, 0), h])
    assert err.value.code == "term_undefined"


def test_a_grid_of_the_right_dimension_samples_the_true_mean():
    grid = RegularGrid((4, 4))
    assert abs(sample_mean(grid, F_WRONG_GRID) - 0.5) <= 1e-15
    assert abs(integrate(GridRule(grid), F_WRONG_GRID) - 0.5) <= 1e-15


OVER_CAP = RegularGrid((1001, 1000))
F2 = FourierPolynomial(PARAMS[2], {(0, 0): 1.0, (3, -2): 0.5j})
SAMPLING_CALLS = {
    "sample_mean": lambda: sample_mean(OVER_CAP, F2),
    "aliased_coefficients": lambda: aliased_coefficients(OVER_CAP, F2, [(0, 0), (1, 2)]),
    "integrate": lambda: integrate(GridRule(OVER_CAP), F2),
    "apply_algorithm": lambda: apply_algorithm(build_std_algorithm(PARAMS[2], 4.0, OVER_CAP), F2),
}


@pytest.mark.parametrize("call", SAMPLING_CALLS)
def test_every_sampling_call_refuses_an_over_cap_grid_before_allocating(call):
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded) as err:
            SAMPLING_CALLS[call]()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (err.value.what, err.value.limit, err.value.needed) == ("grid size", DEFAULT_GRID_CAP, 1_001_000)
    assert peak < 2**20
