import math

import numpy as np
import pytest

from conftest import make_params, row_major_points
from korobov.errors import CapExceeded, InvalidParameterError
from korobov.grids import (
    RegularGrid,
    aliased_coefficients,
    dual_coset_sum,
    dual_weight_sum,
    sample_mean,
)
from korobov.space import FourierPolynomial, basis_function


def random_poly(params, rng, radius=6, terms=20):
    coeffs = {}
    for _ in range(terms):
        h = tuple(int(v) for v in rng.integers(-radius, radius + 1, size=params.s))
        coeffs[h] = complex(rng.normal(), rng.normal())
    return FourierPolynomial(params, coeffs)


def test_grid_basics():
    g = RegularGrid((2,))
    assert row_major_points(g) == [(0.0,), (0.5,)]
    g23 = RegularGrid((2, 3))
    pts = row_major_points(g23)
    assert len(pts) == 6 == g23.n
    assert len(set(pts)) == 6
    assert pts[0] == (0.0, 0.0) and pts[1] == (0.0, 1 / 3)  # row-major
    assert row_major_points(RegularGrid((1, 1))) == [(0.0, 0.0)]
    with pytest.raises(InvalidParameterError):
        RegularGrid((0, 2))
    numpy_sized = RegularGrid((np.int64(2), np.int32(3)))
    assert numpy_sized.mesh == (2, 3) and all(type(m) is int for m in numpy_sized.mesh)
    with pytest.raises(CapExceeded):
        sample_mean(RegularGrid((1001, 1000)), FourierPolynomial(make_params(0.5, (1, 1), (1, 1)), {}))


@pytest.mark.parametrize("mesh", [(2.7, 3), (True,), ("3",), (math.inf, 3), (math.nan, 3)])
def test_mesh_sizes_must_be_integers(mesh):
    with pytest.raises(InvalidParameterError) as err:
        RegularGrid(mesh)
    assert err.value.code == "term_undefined"


def test_aliased_coefficient_trivial_cases():
    p = make_params(0.5, (1, 1), (1, 1))
    g = RegularGrid((2, 3))
    const = FourierPolynomial(p, {(0, 0): 1.0})
    assert aliased_coefficients(g, const, [(0, 0)])[0] == pytest.approx(1.0)

    # single coefficient c at freq: alias appears exactly on its coset
    c = 0.7 - 0.2j
    f = FourierPolynomial(p, {(2, -3): c})
    assert aliased_coefficients(g, f, [(0, 0)])[0] == pytest.approx(c, abs=1e-12)
    assert aliased_coefficients(g, f, [(4, 3)])[0] == pytest.approx(c, abs=1e-12)
    assert abs(aliased_coefficients(g, f, [(1, 0)])[0]) <= 1e-12


def test_aliasing_identity_random(rng):
    p3 = make_params(0.5, (1, 1, 1), (1, 1, 1))
    p2 = make_params(0.5, (1, 2), (1, 1))
    for params in (p2, p3):
        for _ in range(12):
            mesh = tuple(int(v) for v in rng.integers(1, 8, size=params.s))
            g = RegularGrid(mesh)
            f = random_poly(params, rng)
            scale = max(1.0, sum(abs(c) for c in f.coefficients.values()))
            h = tuple(int(v) for v in rng.integers(-8, 9, size=params.s))
            sampled = aliased_coefficients(g, f, [h])[0]
            direct = dual_coset_sum(g, f, h)
            assert abs(sampled - direct) <= 1e-11 * scale


def test_coset_partition(rng):
    # reduction mod the mesh partitions any support; the sampled
    # coefficient at each residue recovers that coset's coefficient sum
    p = make_params(0.5, (1, 1), (1, 1))
    g = RegularGrid((3, 4))
    f = random_poly(p, rng)
    by_residue = {}
    for h, c in f.coefficients.items():
        key = tuple(hj % m for hj, m in zip(h, g.mesh))
        by_residue[key] = by_residue.get(key, 0j) + c
    for residue, expected in by_residue.items():
        assert dual_coset_sum(g, f, residue) == pytest.approx(expected, abs=1e-13)
        assert aliased_coefficients(g, f, [residue])[0] == pytest.approx(expected, abs=1e-11)
    for wrong_length in ((1,), (1, 2, 3)):
        with pytest.raises(InvalidParameterError):
            dual_coset_sum(g, f, wrong_length)


def test_quadrature_residual():
    p = make_params(0.5, (1, 1), (1, 1))
    g = RegularGrid((2, 3))
    const = FourierPolynomial(p, {(0, 0): 2.5})
    assert const.mean() - sample_mean(g, const) == pytest.approx(0.0, abs=1e-14)

    outside = basis_function(p, (1, 2))  # not in the dual of (2,3)
    assert outside.mean() - sample_mean(g, outside) == pytest.approx(0.0, abs=1e-12)

    inside = basis_function(p, (2, -3))  # nonzero dual point
    w_half = 0.5 ** (5 / 2)
    assert inside.mean() - sample_mean(g, inside) == pytest.approx(-w_half, abs=1e-12)


def test_quadrature_residual_matches_dual_sum_random(rng):
    p = make_params(0.5, (1, 1), (1, 1))
    for _ in range(10):
        mesh = tuple(int(v) for v in rng.integers(1, 7, size=2))
        g = RegularGrid(mesh)
        f = random_poly(p, rng)
        dual_side = -sum(
            c
            for h, c in f.coefficients.items()
            if all(hj % m == 0 for hj, m in zip(h, g.mesh)) and any(h)
        )
        assert f.mean() - sample_mean(g, f) == pytest.approx(dual_side, abs=1e-11)


def test_dual_weight_sum_example_and_monotonicity():
    p = make_params(0.5, (1,), (1,))
    # mesh (2,): exponents (2h/2) = h, so -1 + (1 + 2 * sum 2^-h) = 2
    assert dual_weight_sum(p, RegularGrid((2,))) == pytest.approx(2.0, abs=1e-12)
    values = [dual_weight_sum(p, RegularGrid((m,))) for m in range(1, 9)]
    assert all(v >= 0 for v in values)
    assert all(b < a for a, b in zip(values, values[1:]))

    p2 = make_params(0.6, (1, 1.5), (1, 2))
    v_small = dual_weight_sum(p2, RegularGrid((2, 2)))
    v_large = dual_weight_sum(p2, RegularGrid((2, 5)))
    assert 0 <= v_large < v_small


def test_sample_mean_streams_consistently():
    p = make_params(0.5, (1, 1), (1, 1))
    f = FourierPolynomial(p, {(0, 0): 1.0, (1, 2): 0.5, (-3, 1): 0.25j})
    g = RegularGrid((5, 7))
    direct = sum(
        complex(
            sum(
                c * np.exp(2j * np.pi * (h[0] * x[0] + h[1] * x[1]))
                for h, c in f.coefficients.items()
            )
        )
        for x in row_major_points(g)
    ) / g.n
    assert sample_mean(g, f) == pytest.approx(direct, abs=1e-12)
