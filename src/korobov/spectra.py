"""Ordered weights as an eigenvalue sequence, minimal errors, complexity.

The weights omega**E(h) over all frequencies, sorted nonincreasingly,
are the squared singular values of approximating the space inside L2.
The n-th minimal error with unrestricted linear information is the
square root of the (n+1)-st sorted weight, and the number of weights
above eps**2 is the information complexity at accuracy eps.

The n-th weight alone is read by rank selection (``_nth_exponents``) on
the frontier of ``index_set`` (each distinct partial sum over
coordinates 1..s-1 with its multiplicity) and a shell of a few thousand
frequencies, in memory that does not grow with n; in one dimension it
is a closed form.  The k largest weights come from rank selection and
walk: the k-th exponent e is read so, and the array walk of
``index_set`` lists every frequency with exponent <= e once.  They are
ordered only when read in order, by one lexsort by (exponent, frequency
vector), so ties at the cut keep that global order.
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
from .index_set import _count, _frontier, _pow_term, _reach, _sorted, _walk
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

    Held as the walk of every frequency with exponent at most the k-th
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


def _integer_at_least(name: str, value, least: int = 1) -> int:
    """value as an int if it is an integer (``numbers.Integral``, not bool)
    of at least ``least``, 0 or 1; else InvalidParameterError naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        kind = "positive" if least == 1 else "nonnegative"
        raise InvalidParameterError("term_undefined", f"{name} must be a {kind} integer, got {value!r}")
    return int(value)


def top_eigenvalues(params: KorobovParams, k: int) -> Spectrum:
    """The k largest weights, by rank selection and walk; sorted on first read.

    The k-th exponent e is read by rank selection (``_nth_exponents``) and
    the frequencies with exponent <= e, those below the next float, are
    walked once as arrays (``index_set._walk``) and kept in walk order.
    Read in order, they are sorted by (exponent, frequency vector) and the
    first k kept.  Every frequency with the k-th exponent is walked, so
    the tie order at the cut is the global one.
    """
    k = _integer_at_least("k", k)
    (e,) = _nth_exponents(params, [k - 1])
    exponents, members = _walk(a_values(params), b_values(params), math.nextafter(e, math.inf))
    return Spectrum(params=params, k=k, walk_exponents=exponents, walk_members=members)


# A shell of at most this many frequencies is listed and partitioned.
_SHELL = 4096


def _nth_exponents(params: KorobovParams, ns: Sequence[int]) -> list[float]:
    """The float at position n of the sorted walk, for each n >= 0 in ns.

    In one dimension the sorted exponents are 0, T_1, T_1, T_2, T_2, ...
    with T_h = ``_pow_term(a, h, b)``, so position n is T_((n+1)//2).
    Otherwise the budget x is the first doubling of min(a) whose count
    reaches max(ns) + 1, and the frontier (``index_set._frontier``) holds
    the distinct partial sums acc_i over coordinates 1..s-1 below x, with
    multiplicities m_i; with the last coordinate's terms T_h each exponent
    below x is the walk's float acc_i + T_h.  The rank of y <= x is the sum
    of m_i (2 c_i - 1) over c_i = #{h >= 0 : acc_i + T_h < y} >= 1,
    settled by that strict comparison.  y is bisected until [lo, hi) holds
    the n-th exponent among at most ``_SHELL`` frequencies, partitioned
    there, or one float, lo.
    """
    av, bv = a_values(params), b_values(params)
    a, b = av[-1], bv[-1]
    if len(av) == 1 or not ns:
        return [_pow_term(a, (n + 1) // 2, b) for n in ns]
    x = min(av)
    while _count(av, bv, x) <= max(ns):
        x *= 2.0
    front = _frontier(av[:-1], bv[:-1], x)
    acc = np.fromiter(front.keys(), float, len(front))
    mult = np.fromiter(front.values(), np.int64, len(front))
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
    n = _integer_at_least("n", n, 0)
    if n == 0:
        return 1.0
    (e,) = _nth_exponents(params, [n])
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
    n = _integer_at_least("n", n)
    cv = [eta * a * params.log_inv_omega for a in a_values(params)]
    log_bound = (log_product_ceiling(cv, b_values(params)) - math.log(n)) / eta
    return math.exp(log_bound) if log_bound < 709.0 else math.inf
