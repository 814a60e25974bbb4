"""Boundary-adversarial properties: budgets that sit exactly on a lattice
exponent.

A budget equal to E(h) for some lattice point h is where a second
arithmetic for "is E(h) < x" would show, so every budget here is one.
Counting, enumeration, membership, the spectrum and the dual-lattice
window must then agree with a brute force over a box that sums
E(h) = sum_j a_j*|h_j|**b_j in plain Python floats, left to right over
the coordinates, and compares with a strict ``<``, as the package
documents.
"""

import bisect
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_params
from korobov.errors import InvalidParameterError
from korobov.grids import RegularGrid
from korobov.index_set import count_below, enumerate_below, weight_exponent
from korobov.integration import GridRule, extremal_integrand
from korobov.params import a_values, b_values
from korobov.spectra import top_eigenvalues

# Largest budget drawn per dimension; keeps every brute-force box below
# about 5e4 points.
X_CAP = {1: 60.0, 2: 24.0, 3: 10.0, 4: 6.0}

PROPERTY = settings(max_examples=120, deadline=None, derandomize=True, database=None)


def left_to_right(av, bv, h) -> float:
    total = 0.0
    for hj, a, b in zip(h, av, bv):
        if hj:
            total += a * float(abs(hj)) ** b
    return total


def brute_force(av, bv, x) -> set[tuple[int, ...]]:
    """Every h with left_to_right(h) < x, filtered over a box that holds
    them all and their +-1 neighbours."""
    if not x > 0.0:
        return set()
    radii = [int(math.ceil((x / a) ** (1.0 / b))) + 1 for a, b in zip(av, bv)]
    box = itertools.product(*(range(-r, r + 1) for r in radii))
    return {h for h in box if left_to_right(av, bv, h) < x}


@st.composite
def on_lattice(draw, max_mesh=1):
    """Params with real-valued a and b, a mesh, and a lattice point k
    whose exponent under the weights a_j*m_j**b_j is at most X_CAP[s];
    k may be the origin.  With the default mesh of ones those weights
    are a_j themselves."""
    s = draw(st.integers(1, 4))
    a = sorted(draw(st.lists(st.floats(1.0, 3.0), min_size=s, max_size=s)))
    b = draw(st.lists(st.floats(1.0, 2.5), min_size=s, max_size=s))
    mesh = tuple(draw(st.lists(st.integers(1, max_mesh), min_size=s, max_size=s)))
    scaled = [aj * float(m) ** bj for aj, bj, m in zip(a, b, mesh)]
    k = tuple(
        draw(st.integers(-r, r))
        for r in (int((X_CAP[s] / (s * c)) ** (1.0 / bj)) for c, bj in zip(scaled, b))
    )
    return make_params(0.5, a, b), mesh, k


@PROPERTY
@given(on_lattice())
def test_count_enumeration_membership_agree_on_lattice(case):
    params, _, h = case
    av, bv = a_values(params), b_values(params)
    x = weight_exponent(params, h)
    assert x == left_to_right(av, bv, h)
    truth = brute_force(av, bv, x)
    got = enumerate_below(params, x)
    assert count_below(params, x) == got.count == len(truth)
    assert set(got.members) == truth
    assert got.exponent_array.tolist() == [left_to_right(av, bv, g) for g in got.members]
    for g in got.members:
        assert g in got
        for j in range(params.s):
            for step in (-1, 1):
                near = g[:j] + (g[j] + step,) + g[j + 1 :]
                assert (near in got) == (near in truth)


@PROPERTY
@given(on_lattice())
def test_count_matches_spectrum_at_its_exponents(case):
    params, _, h = case
    x = weight_exponent(params, h)
    spectrum = top_eigenvalues(params, count_below(params, x) + 1)
    exponents = list(spectrum.exponents)
    for e in sorted(set(exponents)):
        assert count_below(params, e) == bisect.bisect_left(exponents, e)


@PROPERTY
@given(on_lattice(max_mesh=5))
def test_dual_window_matches_brute_force_at_dual_exponent(case):
    params, mesh, k = case
    av, bv = a_values(params), b_values(params)
    # the window's exponent of the dual point m*k uses the rescaled
    # weights a_j*m_j**b_j, and the budget is one such exponent
    scaled = [a * float(m) ** b for a, b, m in zip(av, bv, mesh)]
    x = left_to_right(scaled, bv, k)
    truth = {
        tuple(gj * m for gj, m in zip(g, mesh))
        for g in brute_force(scaled, bv, x)
        if any(g)
    }
    rule = GridRule(RegularGrid(mesh))
    if not truth:
        with pytest.raises(InvalidParameterError):
            extremal_integrand(params, rule, x)
        return
    assert set(extremal_integrand(params, rule, x).coefficients) == truth
