"""The n-th exponent by rank selection on the walk's frontier.

``spectra._nth_exponents`` reads the (n+1)-st smallest exponent without
walking n frequencies: it bisects a budget on the rank that the frontier
over coordinates 1..s-1 and the last coordinate's terms give, and
partitions a small shell.  It must return the float that walking every
frequency below a budget holding max(n) + 1 of them and partitioning
gives, bit for bit: inside tie blocks, at n = 0, for repeated and
unsorted n, and at counts that end on a lattice exponent.  That walk and
partition, on a budget doubled until the reference recursion
(``conftest.recursive_count``) counts max(n) + 1 frequencies below it,
is kept below as the reference.
"""

import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_params, recursive_count
from korobov import spectra
from korobov.errors import InvalidParameterError
from korobov.index_set import _walk, count_below, weight_exponent
from korobov.params import a_values, b_values
from korobov.spectra import _nth_exponents, eigenvalue_tail_bound, nth_minimal_error, top_eigenvalues

PROPERTY = settings(max_examples=120, deadline=None, derandomize=True, database=None)
DEMO = make_params(0.5, (1, 1), (1, 1))


def holding(av, bv, k):
    """The first doubling of min(a) below which k or more frequencies lie."""
    x = min(av)
    while recursive_count(av, bv, x) < k:
        x *= 2.0
    return x


def walk_and_partition(params, ns):
    """Every frequency below a budget holding max(ns) + 1, partitioned at
    each n."""
    av, bv = a_values(params), b_values(params)
    exponents, _ = _walk(av, bv, holding(av, bv, max(ns) + 1))
    part = np.partition(exponents, sorted(set(ns)))
    return [float(part[n]) for n in ns]


def bits(values):
    return [v.hex() for v in values]


@st.composite
def spaces(draw):
    """s = 1..4, integer weights (many ties) or real ones."""
    s = draw(st.integers(1, 4))
    if draw(st.booleans()):
        a = sorted(draw(st.lists(st.integers(1, 3), min_size=s, max_size=s)))
        b = draw(st.lists(st.integers(1, 2), min_size=s, max_size=s))
    else:
        a = sorted(draw(st.lists(st.floats(1.0, 3.0), min_size=s, max_size=s)))
        b = draw(st.lists(st.floats(1.0, 2.5), min_size=s, max_size=s))
    return make_params(draw(st.floats(0.2, 0.8)), a, b)


@st.composite
def spaces_and_ns(draw):
    """A space and an unsorted list of n < k with repeats, n = 0 and
    positions inside tie blocks of the first k exponents."""
    params = draw(spaces())
    k = draw(st.integers(1, 20_000))
    ns = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=6))
    av, bv = a_values(params), b_values(params)
    exponents = np.sort(_walk(av, bv, holding(av, bv, k))[0])[:k]
    inside = np.flatnonzero(exponents[1:] == exponents[:-1]) + 1
    if inside.size:
        ns += [int(inside[draw(st.integers(0, inside.size - 1))]) for _ in range(2)]
    ns += [0, ns[0]]
    return params, draw(st.permutations(ns))


@pytest.mark.parametrize("shell", [1, 64, 4096])
@PROPERTY
@given(spaces_and_ns())
def test_rank_selection_equals_walk_and_partition(shell, case):
    # a shell of one frequency drives every bisection down to a bracket
    # that holds one float or one frequency
    params, ns = case
    with mock.patch.object(spectra, "_SHELL", shell):
        assert bits(_nth_exponents(params, ns)) == bits(walk_and_partition(params, ns))


@pytest.mark.parametrize("shell", [1, 64, 4096])
def test_rank_selection_on_seeded_instances(shell):
    # hypothesis draws few large k in three and four dimensions
    rng = np.random.default_rng(shell)
    for _ in range(40):
        s = int(rng.integers(1, 5))
        if rng.random() < 0.5:
            av, bv = np.sort(rng.integers(1, 4, size=s)), rng.integers(1, 3, size=s)
        else:
            av, bv = np.sort(rng.uniform(1.0, 2.0, size=s)), rng.uniform(1.0, 2.0, size=s)
        params = make_params(float(rng.uniform(0.2, 0.8)), av, bv)
        k = int(rng.integers(1, 20_000))
        ns = [int(n) for n in rng.integers(0, k, size=4)] + [k - 1]
        with mock.patch.object(spectra, "_SHELL", shell):
            assert bits(_nth_exponents(params, ns)) == bits(walk_and_partition(params, ns))


@st.composite
def on_lattice(draw):
    """A space and a lattice point whose exponent is a budget x."""
    params = draw(spaces())
    av, bv = a_values(params), b_values(params)
    h = tuple(draw(st.integers(-r, r)) for r in (int((12.0 / (a * len(av))) ** (1.0 / b)) for a, b in zip(av, bv)))
    return params, weight_exponent(params, h)


@pytest.mark.parametrize("shell", [1, 4096])
@PROPERTY
@given(on_lattice())
def test_rank_selection_at_counts_on_a_lattice_exponent(shell, case):
    # count_below(x) frequencies lie strictly below x = E(h), so position
    # count_below(x) holds x itself, the first of its tie block
    params, x = case
    n = count_below(params, x)
    ns = [m for m in (n - 1, n) if m >= 0]
    with mock.patch.object(spectra, "_SHELL", shell):
        got = _nth_exponents(params, ns)
    assert bits(got) == bits(walk_and_partition(params, ns))
    assert got[-1] == x


def test_many_reads_equal_single_reads_and_the_sorted_spectrum():
    for params in (DEMO, make_params(0.6, (1, 1.3, 1.7), (1, 1.2, 1.5))):
        sorted_exponents = top_eigenvalues(params, 400).exponent_array
        rng = np.random.default_rng(3)
        for _ in range(10):
            ns = [int(n) for n in rng.integers(0, 400, size=int(rng.integers(1, 12)))]
            got = _nth_exponents(params, ns)
            assert got == [_nth_exponents(params, [n])[0] for n in ns]
            assert got == [float(sorted_exponents[n]) for n in ns]
        assert _nth_exponents(params, []) == []


def test_nth_minimal_error_takes_any_integral_n():
    assert nth_minimal_error(DEMO, np.int64(5)) == nth_minimal_error(DEMO, 5)


def test_k_and_n_follow_one_integer_rule():
    # numbers.Integral except bool, as nth_minimal_error reads n
    spectrum = top_eigenvalues(DEMO, np.int64(5))
    assert spectrum.k == 5 and type(spectrum.k) is int
    assert spectrum.exponents == top_eigenvalues(DEMO, 5).exponents
    assert eigenvalue_tail_bound(DEMO, np.int64(5), 0.5) == eigenvalue_tail_bound(DEMO, 5, 0.5)
    for value in (True, 2.0, 0):
        with pytest.raises(InvalidParameterError, match=re.escape(f"k must be a positive integer, got {value!r}")):
            top_eigenvalues(DEMO, value)
        with pytest.raises(InvalidParameterError, match=re.escape(f"n must be a positive integer, got {value!r}")):
            eigenvalue_tail_bound(DEMO, value, 0.5)


@pytest.mark.parametrize("n", [2.0, True, False, -1, "3", None], ids=repr)
def test_nth_minimal_error_rejects_what_is_not_a_nonnegative_integer(n):
    with pytest.raises(InvalidParameterError, match=re.escape(f"n must be a nonnegative integer, got {n!r}")):
        nth_minimal_error(DEMO, n)


@pytest.mark.parametrize("a, b", [(1, 1), (1.7, 1.3), (2, 2)])
def test_one_dimension_reads_the_closed_form_bit_for_bit(a, b):
    # the sorted exponents are 0, T_1, T_1, T_2, T_2, ...
    params = make_params(0.5, (a,), (b,))
    ns = list(range(300))
    assert bits(_nth_exponents(params, ns)) == bits(walk_and_partition(params, ns))


def test_one_dimension_memory_does_not_grow_with_n():
    # the last coordinate's term table held about n/2 floats (20.5 MiB)
    params = make_params(0.5, (1,), (1,))
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        value = nth_minimal_error(params, 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == math.sqrt(math.exp(500_000 * -params.log_inv_omega))
    assert peak - start <= 2**20


def test_nth_minimal_error_memory_does_not_grow_with_n():
    # walking the 10**6 largest weights held 72 MiB; the frontier of the
    # two-dimensional demo space and one shell hold a few hundred kB
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        value = nth_minimal_error(DEMO, 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.0 < value < 1e-100
    assert peak - start <= 2 * 2**20
