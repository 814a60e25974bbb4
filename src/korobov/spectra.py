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
cut keep that global order; the n-th weight alone is one partition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._series import log_product_ceiling
from .errors import InvalidParameterError
from .index_set import _count, _sorted, _walk, count_below, exponent_budget, weight_exponent
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
    tuples (eigenvalue = omega**exponent).  ``eigenvalue(n)`` and
    ``log_inv_error(n)`` need no order: they read the n-th smallest
    exponent by one partition, the same float whatever the tie order.
    Deep spectra underflow in linear scale, so rate computations should
    read the exponents.  A spectrum is fixed by ``params`` and ``k``, so
    equality reads those only.
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

    def _nth_exponent(self, n: int) -> float:
        """The (n+1)-st smallest exponent; indexes like ``exponent_array[n]``."""
        if not -self.k <= n < self.k:
            raise IndexError(f"index {n} is out of bounds for a spectrum of {self.k} weights")
        n %= self.k
        return float(np.partition(self.walk_exponents, n)[n])

    def eigenvalue(self, n: int) -> float:
        """The (n+1)-st largest weight, omega**exponent in linear scale."""
        return math.exp(self._nth_exponent(n) * -self.params.log_inv_omega)

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

    @property
    def top(self) -> list[tuple[float, tuple[int, ...]]]:
        return list(zip(self.eigenvalues, self.indices))

    def log_inv_error(self, n: int) -> float:
        """log(1/e(n)) for the n-th minimal error, exact in log scale."""
        return 0.5 * self._nth_exponent(n) * self.params.log_inv_omega

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


def nth_minimal_error(params: KorobovParams, n: int) -> float:
    """Best worst-case error after n optimally chosen linear functionals.

    The zero-information error is 1; afterwards it is the square root of
    the (n+1)-st sorted weight.
    """
    if n < 0:
        raise InvalidParameterError("term_undefined", f"n must be nonnegative, got {n}")
    if n == 0:
        return 1.0
    return math.sqrt(top_eigenvalues(params, n + 1).eigenvalue(n))


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
