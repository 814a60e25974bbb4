"""Tail facts of every family kind against brute-force scans of term(j).

``limit``, ``min_term_overall``, ``is_nondecreasing`` and
``sup_index_below`` are derived from each closed form's trend and inverse
(or, for explicit families, from the values and the tail family).  Here
they are checked only against the terms themselves: a scan of j = 1..3000
plus indices 2**12 .. 2**194 far out in the tail.  The families cover
every kind, the degenerate k = 0, r = 1 and alpha = 0, decreasing
parameters, and explicit families with each tail rule.
"""

import math

import pytest

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
