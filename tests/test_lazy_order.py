"""Index sets and spectra keep the walk and sort it on first read.

Their ordered views must be the (E(h), h) order bit for bit, and the
n-th exponent, read by rank selection without any sort, must be the
float at position n of that order, also inside tie blocks and at a k
that ends exactly on a lattice exponent.
"""

import math

import numpy as np
import pytest

from conftest import make_params, random_instance
from korobov.grids import RegularGrid
from korobov.index_set import _sorted, _walk, count_below, enumerate_below
from korobov.params import a_values, b_values
from korobov.oracle import exact_worst_case_error
from korobov.sampling import build_std_algorithm
from korobov.spectra import _nth_exponents, nth_minimal_error, top_eigenvalues


def sorted_rows(exponents, members):
    """The rows as (E, h) tuples, sorted by Python: an independent order."""
    return sorted(zip(exponents.tolist(), map(tuple, members.tolist())))


def test_index_set_views_are_the_sorted_walk(rng):
    for _ in range(60):
        params, x = random_instance(rng, s_max=4, x_max=20.0, work_cap=40_000)
        got = enumerate_below(params, x)
        exponents, members = _walk(a_values(params), b_values(params), x)
        assert np.array_equal(got.walk_exponents, exponents)
        assert np.array_equal(got.walk_members, members)
        order = _sorted(exponents, members)
        assert np.array_equal(got.member_array, members[order])
        assert np.array_equal(got.exponent_array, exponents[order])
        assert list(zip(got.exponent_array.tolist(), got.members)) == sorted_rows(exponents, members)


def test_a_set_is_sorted_only_when_read_in_order():
    params = make_params(0.5, (1, 1.5), (1, 1.2))
    alg = build_std_algorithm(params, 40.0, RegularGrid((3, 2)))
    exact_worst_case_error(alg)
    assert (0, 0) in alg.index_set and (9, 9) not in alg.index_set
    views = ("_order", "member_array", "exponent_array", "members")
    assert not any(name in vars(alg.index_set) for name in views)
    # equality reads (params, threshold, count) only
    assert alg.index_set == enumerate_below(params, alg.threshold)
    alg.index_set.members
    assert "member_array" in vars(alg.index_set)


def check_spectrum(params, k):
    spectrum = top_eigenvalues(params, k)
    assert len(spectrum.walk_exponents) >= k
    assert not any(name in vars(spectrum) for name in ("_order", "exponent_array", "member_array"))
    order = _sorted(spectrum.walk_exponents, spectrum.walk_members)[:k]
    expected = spectrum.walk_exponents[order]
    assert np.array_equal(spectrum.exponent_array, expected)
    assert np.array_equal(spectrum.member_array, spectrum.walk_members[order])
    assert spectrum.exponents == tuple(expected.tolist())
    # rank selection reads the same floats without any walk of k
    assert _nth_exponents(params, range(k)) == expected.tolist()
    return spectrum


@pytest.mark.parametrize("k", [1, 2, 5, 9, 13, 40, 101])
def test_eigenvalue_reads_the_sorted_exponent_inside_tie_blocks(k):
    # a = b = 1 in two dimensions: the exponent |h_1| + |h_2| = r is
    # shared by 4 r frequencies, so most n fall inside a tie block
    check_spectrum(make_params(0.5, (1, 1), (1, 1)), k)


@pytest.mark.parametrize("x", [1.0, 2.0, 3.0, 5.0, 7.0])
def test_eigenvalue_at_k_ending_on_a_lattice_exponent(x):
    # k = count_below(x) for integer x ends a tie block exactly
    params = make_params(0.6, (1, 1, 2), (1, 1, 1))
    k = count_below(params, x)
    spectrum = check_spectrum(params, k)
    assert float(spectrum.exponent_array[-1]) < x
    assert nth_minimal_error(params, k - 1) == math.sqrt(spectrum.eigenvalues[k - 1])


def test_spectrum_views_on_random_instances(rng):
    for _ in range(20):
        params, x = random_instance(rng, s_max=3, x_max=12.0, work_cap=20_000)
        k = max(1, count_below(params, x) // 2)
        check_spectrum(params, min(k, 300))
