"""Ordered weights as an eigenvalue sequence, minimal errors, complexity.

The weights omega**E(h) over all frequencies, sorted nonincreasingly,
are the squared singular values of approximating the space inside L2.
The n-th minimal error with unrestricted linear information is the
square root of the (n+1)-st sorted weight, and the number of weights
above eps**2 is the information complexity at accuracy eps.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

from ._series import log_product_ceiling
from .errors import InvalidParameterError
from .index_set import _exponent, count_below, exponent_budget, weight_exponent
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

    ``eigenvalues`` is nonincreasing and starts at 1 (the origin); ties
    are ordered lexicographically by frequency vector for determinism.
    ``exponents`` carries the same information in log scale
    (eigenvalue = omega**exponent); deep spectra underflow in linear
    scale, so rate computations should read the exponents.
    """

    params: KorobovParams
    eigenvalues: tuple[float, ...]
    indices: tuple[tuple[int, ...], ...]
    exponents: tuple[float, ...]

    @property
    def top(self) -> list[tuple[float, tuple[int, ...]]]:
        return list(zip(self.eigenvalues, self.indices))

    def log_inv_error(self, n: int) -> float:
        """log(1/e(n)) for the n-th minimal error, exact in log scale."""
        return 0.5 * self.exponents[n] * self.params.log_inv_omega

    def __len__(self) -> int:
        return len(self.eigenvalues)


def top_eigenvalues(params: KorobovParams, k: int) -> Spectrum:
    """Best-first enumeration of the k largest weights.

    Nonnegative orbit representatives are expanded from the origin one
    coordinate increment at a time (the exponent is coordinatewise
    monotone, so a heap pops them in nondecreasing exponent order); each
    representative then fans out into its sign variants, which share the
    weight.  Groups of equal exponent are finished before truncating so
    tie order is well defined.
    """
    if not (isinstance(k, int) and k >= 1):
        raise InvalidParameterError("term_undefined", f"k must be a positive integer, got {k!r}")
    av, bv = a_values(params), b_values(params)
    s = params.s
    log_w = -params.log_inv_omega
    origin = (0,) * s
    heap: list[tuple[float, tuple[int, ...]]] = [(0.0, origin)]
    seen = {origin}
    ordered: list[tuple[float, tuple[int, ...]]] = []

    while heap and (len(ordered) < k or heap[0][0] == ordered[-1][0]):
        exponent = heap[0][0]
        group: list[tuple[int, ...]] = []
        while heap and heap[0][0] == exponent:
            _, m = heapq.heappop(heap)
            group.append(m)
            for j in range(s):
                bumped = m[:j] + (m[j] + 1,) + m[j + 1 :]
                if bumped not in seen:
                    seen.add(bumped)
                    heapq.heappush(heap, (_exponent(av, bv, bumped), bumped))
        signed: list[tuple[int, ...]] = []
        for m in group:
            live = [j for j in range(s) if m[j]]
            for signs in itertools.product((-1, 1), repeat=len(live)):
                h = list(m)
                for j, sign in zip(live, signs):
                    h[j] = sign * m[j]
                signed.append(tuple(h))
        signed.sort()
        ordered.extend((exponent, h) for h in signed)

    ordered = ordered[:k]
    eigenvalues = tuple(math.exp(e * log_w) for e, _ in ordered)
    indices = tuple(h for _, h in ordered)
    exponents = tuple(e for e, _ in ordered)
    return Spectrum(params=params, eigenvalues=eigenvalues, indices=indices, exponents=exponents)


def nth_minimal_error(params: KorobovParams, n: int) -> float:
    """Best worst-case error after n optimally chosen linear functionals.

    The zero-information error is 1; afterwards it is the square root of
    the (n+1)-st sorted weight.
    """
    if n < 0:
        raise InvalidParameterError("term_undefined", f"n must be nonnegative, got {n}")
    if n == 0:
        return 1.0
    spectrum = top_eigenvalues(params, n + 1)
    return math.sqrt(spectrum.eigenvalues[n])


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
