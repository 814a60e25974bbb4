"""Frequency sets below an exponent budget and their exact cardinality.

The frequencies h with weight omega**E(h) above a threshold are exactly
those with E(h) = sum_j a_j*|h_j|**b_j below a budget x; the budget that
corresponds to accuracy eps is log(eps^-2)/log(omega^-1).  Cardinalities
are exact Python ints, read from one iterative frontier (``_frontier``):
each distinct partial sum over the leading coordinates with the number of
prefixes that form it, closed over the last two coordinates by
``_reach``.  No recursion is involved, so any dimension is counted.  They
are bracketed by closed-form products.  Members come from one walk held
as arrays (``_walk``): the walk's own frontier keeps every prefix, not
one entry per partial sum, so enumeration, the spectrum and the oracle's
window each get an exponent array and a member array without building a
tuple per frequency.  The walk is kept in walk order; a set is sorted by
(E(h), h) only when its members are first read in that order.

Every threshold decision in the package is made here, by one
arithmetic: E(h) is accumulated left to right over coordinates 1..s,
and each test compares that one float with the budget by a strict
``<`` and no epsilon.  Counting, enumeration, membership, spectra and
the dual-lattice window therefore agree exactly, also on budgets that
sit on a lattice exponent.  Float addition and the term a*|h|**b are
monotone, so a walk that prunes at the first partial sum reaching x
visits exactly the frequencies whose full sum stays below x, and the walk
below a smaller budget is a larger walk's rows below it, same floats, same
order (``IndexSet.below``; ``_nested`` reads many budgets off one walk).
The walk tabulates the terms with the scalar ``_pow_term`` and lets numpy
only add them, so its sums are the same floats.  Forming omega**(-huge)
would overflow, so nothing leaves exponent space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import CapExceeded, InvalidParameterError
from .params import KorobovParams, _require_positive_int, a_values, b_values

__all__ = [
    "DEFAULT_SET_CAP",
    "IndexSet",
    "weight_exponent",
    "exponent_budget",
    "count_below",
    "enumerate_below",
    "last_active_coordinate",
    "count_product_bounds",
    "count_growth_bound",
]

DEFAULT_SET_CAP = 10**6


def weight_exponent(params: KorobovParams, h: Sequence[int]) -> float:
    """E(h) = sum_j a_j * |h_j|**b_j; the weight of h is omega**E(h).

    Work in this exponent and compare exponents directly; never form
    omega**(-E) for large E.
    """
    if len(h) != params.s:
        raise InvalidParameterError(
            "term_undefined", f"frequency has length {len(h)}, expected {params.s}"
        )
    return _exponent(a_values(params), b_values(params), h)


def exponent_budget(omega: float, eps: float) -> float:
    """Budget x with {E(h) < x} = {weight(h) > eps**2}: log(eps^-2)/log(omega^-1)."""
    if not (0.0 < eps < 1.0):
        raise InvalidParameterError("term_undefined", f"eps must lie in (0,1), got {eps}")
    if not (0.0 < omega < 1.0):
        raise InvalidParameterError("omega_out_of_range", f"omega must lie in (0,1), got {omega}")
    return 2.0 * math.log(1.0 / eps) / math.log(1.0 / omega)


def _pow_term(a: float, h: int, b: float) -> float:
    """a * |h|**b, saturating to inf instead of raising on overflow; an
    overflowed term is above every finite budget, which is the correct
    outcome for all comparisons here."""
    if not h:
        return 0.0
    try:
        return a * float(abs(h)) ** b
    except OverflowError:
        return math.inf


def _exponent(av: Sequence[float], bv: Sequence[float], h: Sequence[int]) -> float:
    """E(h) accumulated left to right over the coordinates: the float
    that every threshold decision compares."""
    acc = 0.0
    for hj, a, b in zip(h, av, bv):
        if hj:
            acc += _pow_term(a, hj, b)
    return acc


def _reach(a: float, b: float, acc: float, x: float) -> int:
    """Largest h >= 0 with acc + a*h**b < x, for a partial sum acc < x.

    A float guess from the inverted closed form is corrected by the
    strict comparison itself, so the boundary is decided by exactly the
    sum that ``_exponent`` forms.
    """
    if not (acc + a < x):
        return 0
    k = max(1, int(((x - acc) / a) ** (1.0 / b)))
    while acc + _pow_term(a, k + 1, b) < x:
        k += 1
    while k > 1 and not (acc + _pow_term(a, k, b) < x):
        k -= 1
    return k


def _frontier(av: Sequence[float], bv: Sequence[float], x: float) -> dict[float, int]:
    """Each partial sum over the coordinates of av below x, with the number
    of prefixes (h_1, ..., h_k) that form it.

    Extended coordinate by coordinate: an entry acc of multiplicity m keeps
    acc (h = 0) with m and adds acc + a*h**b, h = 1.._reach, with 2m (+-h).
    These are the walk's left-to-right floats, so equal partial sums merge
    exactly where a recursion memoized on (acc, coordinate) would.  This is
    the only place that merges partial sums.
    """
    front = {0.0: 1}
    for a, b in zip(av, bv):
        ahead: dict[float, int] = {}
        for acc, m in front.items():
            ahead[acc] = ahead.get(acc, 0) + m
            for h in range(1, _reach(a, b, acc, x) + 1):
                e = acc + _pow_term(a, h, b)
                ahead[e] = ahead.get(e, 0) + 2 * m
        front = ahead
    return front


def _count(av: Sequence[float], bv: Sequence[float], x: float) -> int:
    """|{h in Z^s : E(h) < x}|, exact at any dimension.

    The frontier over coordinates 1..s-2 is closed per entry: each h_{s-1}
    whose partial sum stays below x contributes the 2*_reach + 1 values of
    h_s left below x.  Closing two coordinates, not one, keeps the
    frontier small: the one over 1..s-1 is as large as the walk of s-1
    coordinates.  Raises for an infinite x; NaN and x <= 0 hold nothing.
    """
    x = float(x)
    if x == math.inf:
        raise InvalidParameterError("term_undefined", f"budget x must be finite, got x = {x}")
    if not x > 0.0:
        return 0
    if len(av) == 1:
        return 2 * _reach(av[0], bv[0], 0.0, x) + 1
    (a1, a2), (b1, b2) = av[-2:], bv[-2:]
    total = 0
    for acc, m in _frontier(av[:-2], bv[:-2], x).items():
        inner = 2 * _reach(a2, b2, acc, x) + 1
        for h in range(1, _reach(a1, b1, acc, x) + 1):
            inner += 4 * _reach(a2, b2, acc + _pow_term(a1, h, b1), x) + 2
        total += m * inner
    return total


def count_below(params: KorobovParams, x: float) -> int:
    """Number of frequencies with exponent strictly below x.

    Returns 0 for x <= 0 or NaN and 1 (the origin alone) for x in
    (0, a_1]; an infinite x raises ``InvalidParameterError``.  Exact at
    any dimension (``_count``).
    """
    return _count(a_values(params), b_values(params), x)


def _walk(av: Sequence[float], bv: Sequence[float], x: float) -> tuple[np.ndarray, np.ndarray]:
    """(E(h), h) for every h with E(h) < x, as ``(exponents: float64[n],
    members: int64[n, s])`` in walk order: coordinate 1 outermost, each
    coordinate taking 0, -1, 1, -2, 2, ... in turn.

    A frontier of partial sums is extended one coordinate at a time.  The
    coordinate's terms a*h**b, h = 1.._reach, are tabulated by the scalar
    ``_pow_term`` and numpy only adds them to the frontier, left to right,
    and keeps the strict ``< x``; h = 0 adds nothing.  So every exponent is
    bit-identical to ``_exponent(av, bv, h)``.  Numpy never forms a*h**b
    itself: its float power can differ from Python's in the last bit.
    """
    x = float(x)
    s = len(av)
    if not x > 0.0:
        return np.empty(0), np.empty((0, s), dtype=np.int64)
    acc = np.zeros(1)
    members = np.zeros((1, 0), dtype=np.int64)
    for a, b in zip(av, bv):
        reach = _reach(a, b, 0.0, x)
        terms = np.array([0.0] + [_pow_term(a, h, b) for h in range(1, reach + 1)])
        cand = acc[:, None] + terms  # rows: frontier, columns: |h| = 0..reach
        # output columns in walk order h = 0, -1, 1, -2, 2, ...: |h| and h
        size = (np.arange(2 * reach + 1) + 1) // 2
        signed = size * np.resize([1, -1], size.size)
        row, col = np.nonzero((cand < x)[:, size])
        acc = cand[row, size[col]]
        members = np.column_stack((members[row], signed[col]))
    return acc, members


def _enumerate(
    av: Sequence[float], bv: Sequence[float], x: float
) -> list[tuple[float, tuple[int, ...]]]:
    """``_walk`` as a list of (E(h), h) tuples, in the same walk order."""
    exponents, members = _walk(av, bv, x)
    return list(zip(exponents.tolist(), map(tuple, members.tolist())))


def _sorted(exponents: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Order of the rows by (E(h), h_1, ..., h_s), as sorting the tuples would."""
    return np.lexsort((*members.T[::-1], exponents))


@dataclass(frozen=True)
class IndexSet:
    """Enumerated {h : exponent(h) < threshold} with its exact count.

    Held as the walk's two arrays, ``walk_members`` (int64, one row per
    member) and ``walk_exponents`` (E(h) for each row, float64), in walk
    order.  The ordered views are built on first read, by one lexsort:
    ``member_array`` and ``exponent_array`` list the rows by
    nondecreasing exponent, ties broken by plain lexicographic order on
    the component vector (negatives first), and ``members`` holds the
    same rows as tuples.  A set nobody reads in order is never sorted.  The set is fixed by ``params`` and
    ``threshold``, so equality reads those and the count only.
    """

    params: KorobovParams
    threshold: float
    count: int
    walk_exponents: np.ndarray = field(repr=False, compare=False)
    walk_members: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        if not (self.count == len(self.walk_members) == len(self.walk_exponents)):
            raise ValueError("count does not match the member list")

    @cached_property
    def _order(self) -> np.ndarray:
        return _sorted(self.walk_exponents, self.walk_members)

    @cached_property
    def member_array(self) -> np.ndarray:
        return self.walk_members[self._order]

    @cached_property
    def exponent_array(self) -> np.ndarray:
        return self.walk_exponents[self._order]

    @cached_property
    def members(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.member_array.tolist()))

    @cached_property
    def _weights(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        return a_values(self.params), b_values(self.params)

    def __contains__(self, h) -> bool:
        if len(h) != self.params.s:
            raise InvalidParameterError(
                "term_undefined", f"frequency has length {len(h)}, expected {self.params.s}"
            )
        return _exponent(*self._weights, h) < self.threshold

    def below(self, x: float) -> IndexSet:
        """``enumerate_below(params, x)`` for x up to the threshold: this
        walk's rows with exponent below x (see the module docstring)."""
        if x > self.threshold:
            raise InvalidParameterError("term_undefined", f"budget {x} is above {self.threshold}")
        rows = self.walk_exponents < x
        exponents, members = self.walk_exponents[rows], self.walk_members[rows]
        return IndexSet(self.params, float(x), len(exponents), exponents, members)


def enumerate_below(
    params: KorobovParams, x: float, cap: int = DEFAULT_SET_CAP
) -> IndexSet:
    """Materialize the frequency set below budget x, in walk order.

    Where the walk's box prod_j (2 _reach_j + 1) exceeds ``cap``, the set is
    counted first, so the error carries the true size; an infinite x raises.
    """
    av, bv, x = a_values(params), b_values(params), float(x)
    if x == math.inf or math.prod(2 * _reach(a, b, 0.0, x) + 1 for a, b in zip(av, bv)) > cap:
        total = _count(av, bv, x)  # raises for an infinite x
        if total > cap:
            raise CapExceeded("index set size", cap, needed=total)
    exponents, members = _walk(av, bv, x)
    return IndexSet(
        params=params,
        threshold=float(x),
        count=len(exponents),
        walk_exponents=exponents,
        walk_members=members,
    )


def _nested(params: KorobovParams, xs: Sequence[float], cap: int = DEFAULT_SET_CAP) -> dict:
    """``enumerate_below(params, x, cap)``, or the :class:`CapExceeded` it
    raises, for each x in xs from one walk: at the largest x that fits the
    cap, read off by ``IndexSet.below`` for every smaller x."""
    sets, walk = {}, None
    for x in sorted(set(xs), reverse=True):
        try:
            fits = walk is not None and x <= walk.threshold  # never for NaN
            walk = sets[x] = walk.below(x) if fits else enumerate_below(params, x, cap)
        except CapExceeded as exc:
            sets[x] = exc
    return sets


def last_active_coordinate(params: KorobovParams, x: float) -> float:
    """sup{j : a_j < x}, the last coordinate the budget can reach.

    Returns ``math.inf`` for bounded families once x exceeds their
    supremum; callers working at dimension s cap the result at s.
    Undefined (raises) for x <= a_1.
    """
    a1 = params.a.term(1)
    if not (x > a1):
        raise InvalidParameterError(
            "term_undefined", f"no coordinate is active: x = {x} <= a_1 = {a1}"
        )
    return params.a.sup_index_below(x)


def count_product_bounds(params: KorobovParams, x: float) -> tuple[float, float]:
    """Closed-form sandwich for the exact count.

    ``lower <= count_below(params, x) <= upper`` where both sides are
    products of per-coordinate odd interval sizes over the j <= s with
    a_j < x, read from a_1..a_s alone.  The lower bound splits the budget
    by the weights alpha_j = (j-1)/j, which turns it into the product over
    2*ceil((x/(a_j*s))**(1/b_j)) - 1.
    """
    av, bv = a_values(params), b_values(params)
    s = params.s
    if not (x > av[0]):
        raise InvalidParameterError(
            "term_undefined", f"product bounds need x > a_1, got x = {x}, a_1 = {av[0]}"
        )
    alpha = [(j - 1.0) / j for j in range(1, s + 1)]

    top = sum(1 for a in av if a < x)  # min(s, last active coordinate) for monotone a

    lower = 1.0
    upper = 1.0
    for j in range(1, top + 1):
        aj, bj = av[j - 1], bv[j - 1]
        shrink = (1.0 - alpha[j - 1]) * math.prod(alpha[j:])
        lower *= 2.0 * math.ceil((x * shrink / aj) ** (1.0 / bj)) - 1.0
        upper *= 2.0 * math.ceil((x / aj) ** (1.0 / bj)) - 1.0
    return lower, upper


def count_growth_bound(
    params: KorobovParams, x: float, delta: float, j_star: int
) -> float:
    """Polynomial-in-x ceiling 3**j_star * x**(B_s + log(3)/delta).

    Valid once a_j >= exp(delta*j) from coordinate j_star on; that
    hypothesis is verified term by term up to s and the first failing
    coordinate is reported.
    """
    av, bv = a_values(params), b_values(params)
    if not (x > av[0]):
        raise InvalidParameterError(
            "term_undefined", f"growth bound needs x > a_1, got x = {x}"
        )
    if not (delta > 0.0):
        raise InvalidParameterError("term_undefined", f"delta must be positive, got {delta}")
    _require_positive_int(j_star, "j_star")
    for j in range(j_star, params.s + 1):
        if not (av[j - 1] >= math.exp(delta * j)):
            raise InvalidParameterError(
                "term_undefined",
                f"a_{j} = {av[j-1]} < exp(delta*{j}) = {math.exp(delta * j)}",
            )
    b_sum = sum(1.0 / b for b in bv)
    return 3.0**j_star * x ** (b_sum + math.log(3.0) / delta)
