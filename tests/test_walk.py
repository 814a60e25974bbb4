"""The array walk behind enumeration and spectra, against scalar references.

``index_set._walk`` lists {h : E(h) < x} with numpy adding scalar-tabulated
terms.  The reference here is the scalar recursive walk it replaced, kept
verbatim: the same exponents bit for bit, the same members and the same
walk order are required, also for budgets that sit on a lattice exponent.
The count (``index_set._count``, an iterative frontier) is checked against
the memoized recursion it replaced (``conftest.recursive_count``), against
closed forms at thousands of coordinates, and for the memory it holds.
Spectra are checked against a brute-force (exponent, frequency) sort.
"""

import math
import random
import sys
import tracemalloc
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from conftest import brute_force_members, make_params, recursive_count
from korobov.index_set import _count, _enumerate, _exponent, _pow_term, _reach, _walk, count_below, enumerate_below
from korobov.params import a_values, b_values, load_params
from korobov.spectra import _nth_exponents, nth_minimal_error, top_eigenvalues

WORK_CAP = 4000


def recursive_walk(av, bv, x):
    """(E(h), h) for every h with E(h) < x in walk order: coordinate 1
    outermost, each coordinate taking 0, -1, 1, -2, 2, ... in turn."""
    x = float(x)
    s = len(av)
    out = []
    prefix = [0] * s

    def rec(acc, dim):
        if dim == s:
            out.append((acc, tuple(prefix)))
            return
        a, b = av[dim], bv[dim]
        rec(acc, dim + 1)
        for h in range(1, _reach(a, b, acc, x) + 1):
            e = acc + _pow_term(a, h, b)
            for signed in (-h, h):
                prefix[dim] = signed
                rec(e, dim + 1)
        prefix[dim] = 0

    if x > 0.0:
        rec(0.0, 0)
    return out


def draw_weights(draw):
    """(rng, a, b): s = 1..5 integer or real weights (a nondecreasing) and
    the seeded generator that drew them."""
    s = draw(st.integers(1, 5))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        a = sorted(float(rng.randint(1, 3)) for _ in range(s))
        b = [float(rng.randint(1, 2)) for _ in range(s)]
    else:
        a = sorted(rng.uniform(1.0, 2.5) for _ in range(s))
        b = [rng.uniform(1.0, 2.0) for _ in range(s)]
    return rng, a, b


@st.composite
def spaces(draw):
    """(a, b, x): weights from ``draw_weights`` and a budget drawn off the
    lattice, as an integer, or on a lattice exponent."""
    rng, a, b = draw_weights(draw)
    x = rng.uniform(0.0, (60.0, 40.0, 24.0, 18.0, 14.0)[len(a) - 1])
    kind = draw(st.sampled_from(["off", "integer", "on"]))
    if kind == "integer":
        x = float(math.floor(x))
    elif kind == "on":
        lattice = recursive_walk(a, b, x + 1.0)
        x = lattice[rng.randrange(len(lattice))][0]
    return a, b, x


def exact(values):
    return [float(v).hex() for v in values]


@settings(derandomize=True, max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spaces())
def test_walk_equals_scalar_walk(case):
    av, bv, x = case
    if recursive_count(av, bv, x) > WORK_CAP:
        return
    expected = recursive_walk(av, bv, x)
    exponents, members = _walk(av, bv, x)
    assert members.shape == (len(expected), len(av))
    assert exact(exponents.tolist()) == exact(e for e, _ in expected)
    assert [tuple(h) for h in members.tolist()] == [h for _, h in expected]
    # the tuple view keeps the walk order and the types
    view = _enumerate(av, bv, x)
    assert view == expected
    assert all(type(e) is float and all(type(v) is int for v in h) for e, h in view)
    # every exponent is the one left-to-right sum, and the count agrees
    assert exact(e for e, _ in expected) == exact(_exponent(av, bv, h) for _, h in expected)
    assert _count(av, bv, x) == len(expected)


@settings(derandomize=True, max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spaces())
def test_enumerate_below_is_the_sorted_walk(case):
    av, bv, x = case
    if recursive_count(av, bv, x) > WORK_CAP:
        return
    params = make_params(0.5, av, bv)
    got = enumerate_below(params, x)
    expected = sorted(recursive_walk(av, bv, x))
    assert got.count == len(expected) == count_below(params, x)
    assert got.members == tuple(h for _, h in expected)
    assert exact(got.exponent_array.tolist()) == exact(e for e, _ in expected)
    assert got.exponent_array.shape == (got.count,)
    assert got.member_array.shape == (got.count, params.s)


@st.composite
def lattice_budgets(draw):
    """(a, b, x): weights from ``draw_weights`` and x the exponent
    ``_exponent`` of a random frequency h, so x sits exactly on the
    lattice; coordinates range up to about a budget of 30."""
    rng, a, b = draw_weights(draw)
    radii = [int((30.0 / (aj * len(a))) ** (1.0 / bj)) for aj, bj in zip(a, b)]
    h = [rng.randint(-r, r) for r in radii]
    return a, b, _exponent(a, b, h)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(lattice_budgets())
def test_count_equals_the_recursion_on_lattice_exponents(case):
    # E(h) itself is not below E(h): the count excludes h's tie block, and
    # the next float above includes it
    av, bv, x = case
    params = make_params(0.5, av, bv)
    for y in (x, math.nextafter(x, math.inf)):
        assert count_below(params, y) == recursive_count(av, bv, y)


def l1_ball(s, radius):
    """|{h in Z^s : |h_1| + ... + |h_s| <= radius}|, the count for a = b = 1."""
    return sum(2**k * math.comb(s, k) * math.comb(radius, k) for k in range(min(s, radius) + 1))


def test_count_at_thousands_of_coordinates():
    # the recursion needed one Python frame per coordinate and raised
    # RecursionError near s = 1000; the frontier holds no frames
    limit = sys.getrecursionlimit()
    assert count_below(make_params(0.5, [1] * 1000, [1] * 1000), 4.0) == l1_ball(1000, 3)
    big = count_below(make_params(0.5, [1] * 6000, [1] * 6000), 6.5)
    assert big == l1_ball(6000, 6) and big > 2**63
    assert sys.getrecursionlimit() == limit


def test_count_memory_stays_small_on_a_deep_budget():
    # closing the last two coordinates per frontier entry: the frontier over
    # coordinates 1..s-1 alone held about 9.5 MiB here
    params = load_params(str(Path(__file__).parent / "golden" / "s3_real.json"))
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        count = count_below(params, 1000.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == recursive_count(a_values(params), b_values(params), 1000.0)
    assert peak - start <= 2**20


def brute_force_spectrum(params, k):
    """The first k of every frequency sorted by (exponent, vector), from a
    generous box; the budget grows until k frequencies lie below it."""
    av = [params.a_term(j) for j in range(1, params.s + 1)]
    bv = [params.b_term(j) for j in range(1, params.s + 1)]
    x = 1.0
    while True:
        members = brute_force_members(params, x)
        if len(members) >= k:
            break
        x *= 1.5
    ranked = sorted((_exponent(av, bv, h), h) for h in members)
    return ranked[:k]


def assert_spectrum(params, k):
    got = top_eigenvalues(params, k)
    expected = brute_force_spectrum(params, k)
    log_w = -params.log_inv_omega
    assert len(got) == k
    assert got.indices == tuple(h for _, h in expected)
    assert exact(got.exponents) == exact(e for e, _ in expected)
    assert got.eigenvalues == tuple(math.exp(e * log_w) for e, _ in expected)
    assert _nth_exponents(params, range(k)) == list(got.exponents)


SPECTRUM_SPACES = [
    make_params(0.5, (1, 1), (1, 1)),
    make_params(0.5, (1, 1, 2), (1, 2, 1)),
    make_params(0.3, (1, 1, 1, 1), (1, 1, 1, 1)),
    make_params(0.7, (1.0, 1.3, 1.7), (1.1, 1.0, 1.4)),
]


def test_spectrum_first_frequency():
    for params in SPECTRUM_SPACES:
        assert_spectrum(params, 1)
        assert top_eigenvalues(params, 1).indices == ((0,) * params.s,)


def test_spectrum_cut_inside_tie_blocks():
    for params in SPECTRUM_SPACES[:3]:
        ranked = brute_force_spectrum(params, 300)
        starts = [i for i in range(1, 300) if ranked[i][0] != ranked[i - 1][0]]
        cuts = [i + 1 for i, j in zip(starts, starts[1:]) if j - i >= 3]
        assert cuts, "the integer spaces have tie blocks of three or more"
        for k in cuts[:6]:
            assert_spectrum(params, k)


def test_spectrum_at_on_lattice_counts():
    # x an exponent of the lattice: count_below(x) excludes its tie block,
    # and k = count + 1 cuts at the block's first frequency
    for params in SPECTRUM_SPACES:
        ranked = brute_force_spectrum(params, 200)
        for i in (5, 37, 120):
            x = ranked[i][0]
            n = count_below(params, x)
            assert n <= i
            assert_spectrum(params, n)
            assert_spectrum(params, n + 1)


def test_nth_minimal_error_reads_the_spectrum_bit_for_bit():
    for params in (make_params(0.5, (1, 1), (1, 1)), make_params(0.6, (1.0, 1.2, 1.5), (1.0, 1.1, 1.3))):
        spectrum = top_eigenvalues(params, 201)
        for n in range(201):
            assert nth_minimal_error(params, n) == math.sqrt(spectrum.eigenvalues[n])
