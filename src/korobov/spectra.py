"""Ordered weights as an eigenvalue sequence, minimal errors, complexity.

The weights omega**E(h) over all frequencies, sorted nonincreasingly,
are the squared singular values of approximating the space inside L2.
The n-th minimal error with unrestricted linear information is the
square root of the (n+1)-st sorted weight, and the number of weights
above eps**2 is the information complexity at accuracy eps.

The k largest weights come from count and walk: the exact count fixes
a budget holding at least k frequencies and the array walk of
``index_set`` lists them once.  They are ordered only when read in
order, by one lexsort by (exponent, frequency vector), so ties at the
cut keep that global order.  The n-th weight alone is read by rank
selection on the walk's frontier and a shell of a few thousand
frequencies (``_nth_exponents``), in memory that does not grow with n.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from ._series import log_product_ceiling
from .errors import InvalidParameterError
from .index_set import _count, _pow_term, _reach, _sorted, _walk
from .index_set import count_below, exponent_budget, weight_exponent
from .params import KorobovParams, a_values, b_values
from .space import FourierPolynomial

__all__ = [
    "Spectrum",
    "top_eigenvalues",
    "nth_minimal_error",
    "information_complexity",
    "truncate_to_accuracy",
    "eigenvalue_tail_bound",
]


@dataclass(frozen=True)
class Spectrum:
    """The k largest weights with their frequencies.

    Held as the walk below a budget that holds at least k frequencies
    (``walk_exponents``, ``walk_members``, in walk order), sorted on
    first read: ``exponent_array`` (float64, nondecreasing, starting at 0
    for the origin) and ``member_array`` (int64, one frequency per row)
    are the first k rows by (exponent, frequency vector), so ties are
    ordered lexicographically by frequency vector for determinism.
    ``eigenvalues``, ``indices`` and ``exponents`` are the same rows as
    tuples (eigenvalue = omega**exponent); deep spectra underflow in linear
    scale, so rates should read the exponents.  One weight needs no
    spectrum: ``nth_minimal_error`` reads it by rank selection, in memory
    that grows with the walk's frontier and a shell only.  A spectrum is
    fixed by ``params`` and ``k``, so equality reads those only.
    """

    params: KorobovParams
    k: int
    walk_exponents: np.ndarray = field(repr=False, compare=False)
    walk_members: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def _order(self) -> np.ndarray:
        return _sorted(self.walk_exponents, self.walk_members)[: self.k]

    @cached_property
    def exponent_array(self) -> np.ndarray:
        return self.walk_exponents[self._order]

    @cached_property
    def member_array(self) -> np.ndarray:
        return self.walk_members[self._order]

    @cached_property
    def eigenvalues(self) -> tuple[float, ...]:
        log_w = -self.params.log_inv_omega
        return tuple(math.exp(e * log_w) for e in self.exponent_array.tolist())

    @cached_property
    def indices(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.member_array.tolist()))

    @cached_property
    def exponents(self) -> tuple[float, ...]:
        return tuple(self.exponent_array.tolist())

    def __len__(self) -> int:
        return self.k


def _budget_for(av: tuple[float, ...], bv: tuple[float, ...], k: int) -> float:
    """A budget x with k <= _count(av, bv, x) <= about 1.25 k.

    The budget doubles until the count reaches k and is then bisected
    down.  Where one tie block holds more than k/4 frequencies the count
    jumps past 1.25 k at a single exponent; the bisection then stops when
    the bracket closes, and the count stays above 1.25 k.
    """
    lo, hi = 0.0, min(av)
    count = _count(av, bv, hi)
    while count < k:
        lo, hi = hi, 2.0 * hi
        count = _count(av, bv, hi)
    while count > 1.25 * k:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        got = _count(av, bv, mid)
        if got < k:
            lo = mid
        else:
            hi, count = mid, got
    return hi


def top_eigenvalues(params: KorobovParams, k: int) -> Spectrum:
    """The k largest weights, by count and walk; sorted on first read.

    A budget x is searched on the exact count until k <= count(x) <=
    about 1.25 k, and the frequencies below x are walked once as arrays
    (``index_set._walk``) and kept in walk order.  Read in order, they
    are sorted by (exponent, frequency vector) and the first k kept.
    Every frequency with the k-th exponent lies below x, so the tie order
    at the cut is the global one.
    """
    if not (isinstance(k, int) and k >= 1):
        raise InvalidParameterError("term_undefined", f"k must be a positive integer, got {k!r}")
    av, bv = a_values(params), b_values(params)
    exponents, members = _walk(av, bv, _budget_for(av, bv, k))
    return Spectrum(params=params, k=k, walk_exponents=exponents, walk_members=members)


# A shell of at most this many frequencies is listed and partitioned.
_SHELL = 4096


def _nth_exponents(params: KorobovParams, ns: Sequence[int]) -> list[float]:
    """The float at position n of the sorted walk, for each n >= 0 in ns.

    The walk's frontier holds the partial sums acc_i over coordinates
    1..s-1 below a budget x with max(ns) + 1 frequencies, and with the last
    coordinate's terms T_h (``_pow_term``) each exponent below x is the
    walk's float acc_i + T_h.  The rank of y <= x is the sum of 2 c_i - 1
    over c_i = #{h >= 0 : acc_i + T_h < y} >= 1, settled by that strict
    comparison.  y is bisected until [lo, hi) holds the n-th exponent among
    at most ``_SHELL`` frequencies, partitioned there, or one float, lo.
    """
    if not ns:
        return []
    av, bv = a_values(params), b_values(params)
    x = _budget_for(av, bv, max(ns) + 1)
    acc, mult = np.unique(_walk(av[:-1], bv[:-1], x)[0], return_counts=True)
    a, b = av[-1], bv[-1]
    terms = np.array([0.0] + [_pow_term(a, h, b) for h in range(1, _reach(a, b, 0.0, x) + 2)])

    def below(y: float) -> tuple[np.ndarray, int]:  # (c_i, rank) for y <= x <= terms[-1]
        c = np.searchsorted(terms, y - acc)
        while (up := acc + terms[c] < y).any():
            c += up
        while (down := (c > 0) & ~(acc + terms[c - 1] < y)).any():
            c -= down
        return c, int(mult @ np.maximum(2 * c - 1, 0))

    found, top = {}, below(x)
    for n in sorted(set(ns)):
        lo, c_lo, r_lo = 0.0, np.zeros(acc.size, dtype=np.int64), 0
        hi, (c_hi, r_hi) = x, top
        while r_hi - r_lo > _SHELL and lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            c, r = below(mid)
            if r <= n:
                lo, c_lo, r_lo = mid, c, r
            else:
                hi, c_hi, r_hi = mid, c, r
        found[n] = lo  # unless a shell is listed, [lo, hi) holds the one float lo
        if r_hi - r_lo <= _SHELL:  # acc_i + T_h for c_lo <= h < c_hi, h >= 1 twice (+-h)
            width = c_hi - c_lo
            row = np.repeat(np.arange(acc.size), width)
            h = np.arange(row.size) - (np.cumsum(width) - width - c_lo)[row]
            shell = np.repeat(acc[row] + terms[h], mult[row] * np.where(h > 0, 2, 1))
            found[n] = float(np.partition(shell, n - r_lo)[n - r_lo])
    return [found[n] for n in ns]


def nth_minimal_error(params: KorobovParams, n: int) -> float:
    """Best worst-case error after n optimally chosen linear functionals.

    The zero-information error is 1; afterwards it is the square root of
    the (n+1)-st sorted weight, read by rank selection in memory that
    grows with the walk's frontier and a shell only, not with n.
    """
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
        raise InvalidParameterError("term_undefined", f"n must be a nonnegative integer, got {n!r}")
    if n == 0:
        return 1.0
    (e,) = _nth_exponents(params, [int(n)])
    return math.sqrt(math.exp(e * -params.log_inv_omega))


def information_complexity(params: KorobovParams, eps: float) -> int:
    """Minimal number of linear functionals reaching accuracy eps.

    Equals the number of frequencies whose weight exceeds eps**2, i.e.
    the count below the budget x(eps).
    """
    return count_below(params, exponent_budget(params.omega, eps))


def truncate_to_accuracy(
    params: KorobovParams, eps: float, f: FourierPolynomial
) -> FourierPolynomial:
    """Optimal algorithm with unrestricted information: keep exactly the
    coefficients whose frequency weight exceeds eps**2.

    The L2 error of the result is at most eps times the space norm of f.
    """
    if f.params != params:
        raise InvalidParameterError("term_undefined", "function belongs to a different space")
    budget = exponent_budget(params.omega, eps)
    return f.restrict(lambda h: weight_exponent(params, h) < budget)


def eigenvalue_tail_bound(params: KorobovParams, n: int, eta: float) -> float:
    """Upper bound on the n-th sorted weight from the eta-th power trace.

    n * lambda_n**eta is at most the sum of all weights to the power eta,
    which factors over coordinates and is bounded in closed form
    (``_series.log_product_ceiling``); any eta in (0,1) yields a valid bound.
    """
    if not (0.0 < eta < 1.0):
        raise InvalidParameterError("term_undefined", f"eta must lie in (0,1), got {eta}")
    if not (isinstance(n, int) and n >= 1):
        raise InvalidParameterError("term_undefined", f"n must be a positive integer, got {n!r}")
    cv = [eta * a * params.log_inv_omega for a in a_values(params)]
    log_bound = (log_product_ceiling(cv, b_values(params)) - math.log(n)) / eta
    return math.exp(log_bound) if log_bound < 709.0 else math.inf
