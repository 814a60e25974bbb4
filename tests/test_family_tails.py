"""Tail facts of every family kind against brute-force scans of term(j).

``limit``, ``min_term_overall``, ``is_nondecreasing`` and
``sup_index_below`` are derived from each closed form's trend and inverse
(or, for explicit families, from the values and the tail family).  Here
they are checked only against the terms themselves: a scan of j = 1..3000
plus indices 2**12 .. 2**194 far out in the tail.  The families cover
every kind, the degenerate k = 0, r = 1 and alpha = 0, decreasing
parameters, and explicit families with each tail rule.

The sup-index search is checked against the two-path search it replaced,
kept below with its logic unchanged: the same answer from every guess,
in a bounded number of terms from the family's own.
"""

import math
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

from korobov.cli import main
from korobov.errors import ConfigError, InvalidParameterError, UndecidableTail
from korobov.params import (
    ConstantFamily,
    ExplicitFamily,
    ExponentialFamily,
    GeometricFamily,
    PowerFamily,
    _adjusted_max_index,
    family_from_config,
)

_FLOAT_MAX = sys.float_info.max

CLOSED = [
    ConstantFamily(1.0),
    ConstantFamily(2.5),
    PowerFamily(1.0, 0.0),
    PowerFamily(1.0, 0.5),
    PowerFamily(2.0, 1.0),
    PowerFamily(1.0, 2.0),
    PowerFamily(0.5, 3.7),
    PowerFamily(1.0, -1.0),
    PowerFamily(3.0, -0.5),
    GeometricFamily(1.0, 1.0),
    GeometricFamily(1.0, 1.1),
    GeometricFamily(2.0, 2.0),
    GeometricFamily(1.0, 3.0),
    GeometricFamily(1.0, 0.5),
    GeometricFamily(4.0, 0.9),
    ExponentialFamily(1.0, 0.0),
    ExponentialFamily(1.0, 0.3),
    ExponentialFamily(2.0, 1.0),
    ExponentialFamily(1.0, -0.5),
]
EXPLICIT = [
    ExplicitFamily((1.0, 2.0), "repeat"),
    ExplicitFamily((1.0, 3.0, 3.0), "repeat"),
    ExplicitFamily((2.0, 1.0), "repeat"),
    ExplicitFamily((1.0, 1.5, 4.0), PowerFamily(1.0, 2.0)),
    ExplicitFamily((1.0, 2.0), GeometricFamily(1.0, 2.0)),
    ExplicitFamily((1.0, 2.0), ExponentialFamily(1.0, 0.0)),
    ExplicitFamily((1.0, 5.0), PowerFamily(1.0, 1.0)),  # drops at the seam
    ExplicitFamily((1.0, 2.0), ExponentialFamily(1.0, -0.5)),
    ExplicitFamily((1.0, 2.0), ExplicitFamily((2.0, 2.0, 7.0), "repeat")),
    # a nested tail is read only past the outer values: 1, 2, 7, 7, ...
    ExplicitFamily((1.0, 2.0), ExplicitFamily((0.0, 0.0, 7.0), "repeat")),
    ExplicitFamily((1.0, 2.0), ExplicitFamily((9.0, 0.0, 7.0), "repeat")),
]
FAMILIES = CLOSED + EXPLICIT
INDICES = list(range(1, 3001)) + [2**k for k in range(12, 200, 7)]
BUDGETS = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 7.0, 10.0, 100.0, 1e4, 1e8, 1e12]


def scan(family):
    return [family.term(j) for j in INDICES]


@pytest.mark.parametrize("family", FAMILIES, ids=repr)
def test_monotonicity_matches_the_scan(family):
    terms = scan(family)
    assert family.is_nondecreasing() == all(u <= v for u, v in zip(terms, terms[1:]))


@pytest.mark.parametrize("family", FAMILIES, ids=repr)
def test_limit_matches_the_far_terms(family):
    terms, limit = scan(family), family.limit()
    if limit == math.inf:
        assert terms[-1] >= 1e20
    elif limit == 0.0:
        assert terms[-1] <= 1e-20
    else:
        assert terms[-2] == terms[-1] == limit


@pytest.mark.parametrize("family", FAMILIES, ids=repr)
def test_minimum_is_the_infimum_of_the_scan(family):
    terms, minimum = scan(family), family.min_term_overall()
    assert minimum <= min(terms)
    if minimum > 0.0:
        assert minimum == min(terms)  # attained
    else:
        assert min(terms) <= 1e-20  # approached


@pytest.mark.parametrize("family", [f for f in FAMILIES if f.is_nondecreasing()], ids=repr)
def test_sup_index_sits_on_the_boundary(family):
    terms = scan(family)
    for x in BUDGETS:
        j = family.sup_index_below(x)
        if j == math.inf:
            assert all(t < x for t in terms)
            continue
        assert isinstance(j, int)
        assert (j == 0 or family.term(j) < x) and x <= family.term(j + 1)
        if j < 3000:
            assert j == max((i for i in range(1, 3001) if terms[i - 1] < x), default=0)


@pytest.mark.parametrize("family", [f for f in CLOSED if not f.is_nondecreasing()], ids=repr)
def test_decreasing_closed_forms_have_no_sup_index(family):
    with pytest.raises(InvalidParameterError) as info:
        family.sup_index_below(2.0)
    assert info.value.code == "a_nonmonotone"
    assert str(info.value) == f"decreasing {family.kind} family has no sup index"


def test_repeat_is_the_constant_tail():
    repeat = ExplicitFamily((1.0, 1.5, 2.0), "repeat")
    constant = ExplicitFamily((1.0, 1.5, 2.0), ConstantFamily(2.0))
    for name in ("limit", "log_growth", "reciprocal_sum", "min_term_overall", "is_nondecreasing"):
        assert getattr(repeat, name)() == getattr(constant, name)()
    for j in (1, 3, 4, 10**9):
        assert repeat.term(j) == constant.term(j)
    for x in BUDGETS:
        assert repeat.sup_index_below(x) == constant.sup_index_below(x)


def test_undeclared_tail_is_undecidable_past_the_values():
    bare = ExplicitFamily((1.0, 2.0))
    assert bare.sup_index_below(1.5) == 1
    for ask in (bare.limit, bare.log_growth, bare.reciprocal_sum, bare.min_term_overall,
                bare.is_nondecreasing, lambda: bare.term(3), lambda: bare.sup_index_below(3.0)):
        with pytest.raises(UndecidableTail):
            ask()


@pytest.mark.parametrize(
    "family,x",
    [(PowerFamily(1.0, 1.0), 1e300), (PowerFamily(1.0, 0.5), 1e15), (PowerFamily(7.0, 0.5), 1e150),
     (ExponentialFamily(1.0, 1e-300), 10.0), (ExplicitFamily((1.0, 2.0), PowerFamily(1.0, 1.0)), 1e300)],
    ids=repr,
)
def test_sup_index_crosses_a_run_of_equal_rounded_terms(family, x):
    # Past 2**53 consecutive indices share one rounded term, so the
    # boundary sits inside a run of equal values that a walk one index
    # at a time would never leave.
    j = family.sup_index_below(x)
    assert family.term(j) < x <= family.term(j + 1)


@pytest.mark.parametrize("family", [f for f in FAMILIES if f.is_nondecreasing()], ids=repr)
def test_sup_index_below_infinity_is_infinite(family):
    # every term is finite, so none reaches an infinite budget
    assert family.sup_index_below(math.inf) == math.inf


@pytest.mark.parametrize(
    "family,x",
    [(PowerFamily(7.0, 0.5), 1e300), (PowerFamily(1.0, 0.04), 1e300),
     (ExplicitFamily((1.0, 2.0), PowerFamily(7.0, 0.5)), 1e300)],
    ids=repr,
)
def test_sup_index_past_the_float_range_of_the_guess(family, x):
    # inverting the closed form overflows a float; the search runs in ints
    j = family.sup_index_below(x)
    assert isinstance(j, int)
    assert family.term(j) < x <= family.term(j + 1)


def test_power_terms_past_the_float_range_stay_finite():
    # 7 sqrt(j) < 1e300 up to j = 10**600 / 49, far past the largest
    # float: the terms there are c exp(k log j), not inf
    family = PowerFamily(7.0, 0.5)
    j = family.sup_index_below(1e300)
    assert family.term(j) < 1e300 <= family.term(j + 1)
    assert abs(49 * j - 10**600) * 10**12 <= 10**600


@pytest.mark.parametrize(
    "family,x",
    [(PowerFamily(1.0, 0.04), 1e300), (PowerFamily(7.0, 0.5), 1e300), (PowerFamily(3.0, 0.1), 1e250),
     (PowerFamily(2.0, 0.7), 1.7e308), (PowerFamily(1e-300, 0.9), 1e-10)],
    ids=repr,
)
def test_sup_index_past_the_float_range_takes_few_terms(family, x):
    # The guess is built from the logarithm as an integer; stepping and
    # bisecting from it once per bit took 49,831 terms for the 24,915-bit
    # index of PowerFamily(1.0, 0.04) at 1e300.
    calls = []

    def term(j):
        calls.append(j)
        return family.term(j)

    j = _adjusted_max_index(term, family._index_guess(x), x)
    assert j == family.sup_index_below(x) and j.bit_length() > 1024
    assert family.term(j) < x <= family.term(j + 1)
    assert len(calls) <= 200


@pytest.mark.parametrize("guess", [1.0, 2.0**500, 1e300, 1e301, math.inf, math.nan])
def test_sup_index_search_does_not_depend_on_the_guess(guess):
    # From far below, only doubling steps reach the boundary near 1e300.
    family = PowerFamily(1.0, 1.0)
    assert _adjusted_max_index(family.term, guess, 1e300) == family.sup_index_below(1e300)


def test_complexity_with_a_budget_deep_in_a_power_family_returns(tmp_path):
    cfg = tmp_path / "deep.json"
    cfg.write_text(
        '{"omega": 0.999999999999, "s": 2, "a": {"family": "power", "c": 1, "k": 0.5},'
        ' "b": {"family": "constant", "c": 1}, "eps": [1e-300]}'
    )
    out = tmp_path / "deep.csv"
    assert main(["complexity", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1] == (
        "2,1e-300,cap_exceeded,1.3494029824632788e+30,5.3976119298531106e+30"
    )


def test_complexity_with_a_budget_past_the_float_range_writes_a_row(tmp_path):
    cfg = tmp_path / "deeper.json"
    cfg.write_text(
        '{"omega": 0.999999999999, "s": 2, "a": {"family": "power", "c": 1, "k": 0.04},'
        ' "b": {"family": "constant", "c": 1}, "eps": [1e-300]}'
    )
    out = tmp_path / "deeper.csv"
    assert main(["complexity", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1].startswith("2,1e-300,cap_exceeded,")


@pytest.mark.parametrize("tail", [5, 2.0, ("repeat",), "cycle"], ids=repr)
def test_malformed_tail_is_rejected_at_construction(tail):
    with pytest.raises(InvalidParameterError) as info:
        ExplicitFamily((1.0, 2.0), tail)
    assert info.value.code == "term_undefined"


@pytest.mark.parametrize("tail", [5, [1, 2], "cycle", True])
def test_malformed_tail_in_a_config_names_the_tail(tail):
    with pytest.raises(ConfigError) as info:
        family_from_config({"family": "explicit", "values": [1, 2], "tail": tail}, "a")
    assert info.value.path == "a.tail"


@pytest.mark.parametrize("kind", [["power"], {"x": 1}, 3, None, True, "Power"], ids=repr)
def test_unknown_or_unhashable_kind_is_a_config_error(kind):
    with pytest.raises(ConfigError) as info:
        family_from_config({"family": kind, "c": 1, "k": 2}, "b")
    assert info.value.path == "b.family"


# ---------------------------------------------------------------------------
# Reference: the doubling-and-bisection search with a second path for
# integer guesses past the float range, which the one search replaced.


def reference_max_index(term, guess, x):
    """Largest j >= 1 with term(j) < x (0 when none), starting from a guess."""
    if isinstance(guess, int) and guess > _FLOAT_MAX:
        unit = 1 << (guess.bit_length() - 40)
        lo = (guess - (guess >> 20)) // unit * unit
        if term(lo) < x:
            return reference_past_floats(term, lo, unit, x)
    lo, hi, step = 0, max(1, int(guess if guess < _FLOAT_MAX else _FLOAT_MAX)), 1
    while term(hi) < x:
        lo, hi, step = hi, hi + step, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if term(mid) < x else (lo, mid)
    return lo


def reference_past_floats(term, lo, unit, x):
    """Largest j with term(j) < x, given term(lo) < x and lo a multiple
    of the power of two ``unit``, far past the float range."""
    hi, step = lo + unit, 2 * unit
    while term(hi) < x:
        lo, hi, step = hi, hi + step, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if term(mid) < x:
            if not term(mid + 1) < x:
                return mid
            lo = mid
        else:
            if term(mid - 1) < x:
                return mid - 1
            hi = mid
    return lo


def own_guess(family, x):
    try:
        return family._index_guess(x)
    except OverflowError:
        return math.inf


def nudged(guess, sign):
    """The guess times 1 + sign * 2**-30."""
    if isinstance(guess, int):
        return guess + sign * (guess >> 30)
    return guess * (1.0 + sign * 2.0**-30)


def counted(term):
    calls = []

    def wrapped(j):
        calls.append(j)
        return term(j)

    return wrapped, calls


MAX_BITS = 4000  # a guess of 1 is searched one bit at a time


@st.composite
def families_and_budgets(draw):
    c = 10.0 ** draw(st.floats(-300.0, 5.0))
    x = 10.0 ** draw(st.floats(math.log10(1.5), 300.0))
    kind = draw(st.sampled_from(["power", "geometric", "exponential"]))
    if kind == "power":
        # answers near (x/c)**(1/k) keep at most MAX_BITS bits
        k = max(draw(st.floats(0.05, 8.0)), math.log2(x / c) / MAX_BITS if x > c else 0.0)
        return PowerFamily(c, k), x
    if kind == "geometric":
        return GeometricFamily(c, 1.0 + 10.0 ** draw(st.floats(-9.0, 2.0))), x
    return ExponentialFamily(c, 10.0 ** draw(st.floats(-9.0, 1.0))), x


@settings(derandomize=True, max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(families_and_budgets())
def test_the_search_answers_alike_from_every_guess(case):
    family, x = case
    guess = own_guess(family, x)
    expected = reference_max_index(family.term, guess, x)
    assert expected == 0 or family.term(expected) < x
    assert x <= family.term(expected + 1)
    term, calls = counted(family.term)
    assert _adjusted_max_index(term, guess, x) == expected
    assert len(calls) <= 100
    for other in (nudged(guess, 1), nudged(guess, -1), 1, math.inf, math.nan):
        assert _adjusted_max_index(family.term, other, x) == expected


@pytest.mark.parametrize(
    "family,x,bits",
    [(PowerFamily(1e-300, 2.0), 1e10, 515), (PowerFamily(1e-300, 0.3), 1e300, 6644)],
    ids=repr,
)
def test_a_small_power_coefficient_reaches_the_true_boundary(family, x, bits):
    # j**k overflows long before c * j**k does; a term of inf there once
    # cut the answer to where j**k overflows (512 and 3,414 bits)
    j = family.sup_index_below(x)
    assert family.term(j) < x <= family.term(j + 1)
    assert j.bit_length() == bits
    true_log = (math.log(x) - math.log(family.c)) / family.k
    assert abs(math.log(j) - true_log) <= 1e-12 * true_log


@pytest.mark.parametrize(
    "family,x,j",
    [(GeometricFamily(1e-300, 2.0), 1e10, 1029), (ExponentialFamily(1e-300, 1.0), 1e10, 713)],
    ids=repr,
)
def test_a_small_coefficient_keeps_geometric_and_exponential_terms_finite(family, x, j):
    # r**j and exp(alpha j) overflow at j = 1024 and 710, c times them not
    assert family.term(j) < x <= family.term(j + 1) < math.inf
    assert family.sup_index_below(x) == j


def test_a_float_guess_past_2_to_the_53_takes_few_terms():
    # the guess 5e299 was bisected from 0 one bit at a time: 996 terms
    family = PowerFamily(2.0, 1.0)
    term, calls = counted(family.term)
    j = _adjusted_max_index(term, family._index_guess(1e300), 1e300)
    assert family.term(j) < 1e300 <= family.term(j + 1)
    assert len(calls) <= 100


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.floats(-300.0, 5.0),
    st.floats(-3.0, 10.0),
    st.one_of(st.integers(1, 2**64), st.integers(1, 2**1100)),
)
@example(-300.0, 2.0, 10**200)  # j**k overflows, c * j**k = 1e100
@example(-300.0, 1.1, 2**1100)  # j past the float range
def test_power_terms_are_the_float_product_wherever_it_is_finite(log_c, k, j):
    family = PowerFamily(10.0**log_c, k)
    try:
        direct = family.c * float(j) ** k
    except OverflowError:
        direct = math.inf
    if direct < math.inf:
        assert family.term(j) == direct
        return
    # past the float product the term is formed in log space, and is inf
    # only where c * j**k overflows
    log_term = math.log(family.c) + k * math.log(j)
    if log_term < 709.0:
        assert family.term(j) == pytest.approx(math.exp(log_term), rel=1e-12)
    elif log_term > 710.0:
        assert family.term(j) == math.inf
