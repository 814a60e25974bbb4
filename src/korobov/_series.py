"""Certified weight series and the product form over coordinates.

The only place that sums S(a, b) = sum_{h>=1} omega**(a*h**b), b >= 1,
or a one-dimensional coset series sum_{l != 0} omega**(a*|r + m l|**b),
forms the excess prod_j (1 + rho_j) - 1, or bounds the mass beyond an
enumerated window.  :func:`weight_sum` brackets S from one set of terms,
:func:`product_excess` forms the excess by the one recurrence
sum_j rho_j prod_{i<j} (1 + rho_i), and :func:`nonzero_mass` brackets
sum_{h != 0} omega**E(h) = prod_j (1 + 2 S(a_j, b_j)) - 1 with both;
dual lattices enter as scaled weights a_j*m_j**b_j or a_j*(m_j/2)**b_j.
Results are certified in floating point, upper values rounded up and
lower values down: u = 2**-53, elementary functions within 8 u,
arithmetic within u, and 2**-1070 per result for subnormals.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import InvalidParameterError
from .index_set import _pow_term
from .params import _U, Interval

__all__ = ["weight_terms", "weight_sum", "coset_sum_upper", "product_excess", "nonzero_mass",
           "series_ceiling", "log_product_ceiling", "trace_ceilings", "beyond_window_mass"]

_MAX_TERMS = 10**7
_TINY = 2.0**-1070  # 16 subnormal units
_LOG_HUGE = 709.0  # exp overflows above this


def weight_terms(omega: float, a: float, b: float, tol: float) -> tuple[np.ndarray, float, np.ndarray]:
    """(terms, tail, margin) of S(a, b): the terms for h = 1..H, H the
    first index whose tail bound is below ``tol``, a certified upper value
    of the sum over h > H, and relative error bounds of the terms.

    Tail: h**b >= H**b (1 + (h-H)/H) for h >= H, so the tail is at most
    term H * q/(1-q), q = omega**(a*H**(b-1)).  Margin: the exponent
    a*h**b*log(omega) takes a power, a log and two products (6 u), and a
    scaled ``a`` (a*m**b, a*(m/2)**b) 3 u more, so it is within
    10 u |exponent|; with exp, margin = (10 |exponent| + 10) u.  The tail
    formula repeats those errors for term H, covered by 3 margin + 16 u.
    A ``tol`` that is not positive (or underflowed) raises before any term.
    """
    if not tol > 0.0:
        raise InvalidParameterError("term_undefined", f"series tolerance must be positive, got {tol}")
    log_w = math.log(omega)
    n = 64
    while True:
        h = np.arange(1.0, n + 1.0)
        exponent = a * h**b * log_w
        terms = np.exp(exponent)
        q_log = exponent / h
        tails = terms * np.exp(q_log) / -np.expm1(q_log)
        hit = np.flatnonzero(tails < tol)
        if hit.size:
            last = int(hit[0])
            break
        if n >= _MAX_TERMS:
            raise RuntimeError("weight series did not reach the requested tolerance")
        n *= 4
    margin = (10.0 * np.abs(exponent[: last + 1]) + 10.0) * _U
    tail = float(tails[last]) * (1.0 + 3.0 * float(margin[-1]) + 16.0 * _U)
    return terms[: last + 1], math.nextafter(tail, math.inf) + _TINY, margin


def weight_sum(omega: float, a: float, b: float, tol: float) -> Interval:
    """Certified bracket of S(a, b) from one set of :func:`weight_terms`:
    the ``math.fsum`` of the terms minus their margins, narrowed by 4 u,
    below, and plus their margins and the tail, widened by 4 u and rounded
    up, above, so the upper end is within about tol above the sum."""
    terms, tail, margin = weight_terms(omega, a, b, tol)
    total = math.fsum(terms.tolist())
    widen = math.fsum((terms * margin).tolist()) + terms.size * _TINY
    return Interval(max((total - widen) * (1.0 - 4.0 * _U), 0.0),
                    math.nextafter((total + widen + tail) * (1.0 + 4.0 * _U), math.inf))


def coset_sum_upper(log_w: float, a: float, b: float, m: int, h: int, tol: float) -> float:
    """Certified upper value of sum_{l != 0} omega**(a*|h + m*l|**b), log_w = log(omega),
    within relative tol of the true sum.

    Once m*l >= |h|, the progressions |h| + m*l and m*l - |h| grow by m
    per step and (p + m*k)**b >= p**b + m**b * k for b >= 1, so the terms
    after step l sum to at most the two at l times q/(1-q), q = omega**(a*m**b);
    that tail is added once it is below tol times the partial sum.  Each
    exponent is within 6 u of its size, the exponentials and the sum add
    about u per term, and q/(1-q) comes from expm1 without cancellation:
    the result is widened by 7 u times the deepest exponent plus 2 u per
    step and rounded up.
    """
    c = -a * float(m) ** b * log_w
    ratio = math.exp(-c) / -math.expm1(-c)  # q/(1-q), accurate also for q near 1
    r, total, l = abs(h), 0.0, 0
    while True:
        l += 1
        deep = _pow_term(a, r + m * l, b) * log_w
        last = math.exp(deep) + math.exp(_pow_term(a, m * l - r, b) * log_w)
        total += last
        if m * l >= r and last * ratio <= tol * total:
            widen = (7.0 * abs(deep) + 2.0 * l + 12.0) * _U
            return math.nextafter((total + last * ratio) * (1.0 + widen), math.inf)


def _factor_tol(omega: float, av: Sequence[float], bv: Sequence[float], tol: float) -> float:
    """Tolerance tol / (4 s C) of each factor's series, C the product's ceiling."""
    log_inv = -math.log(omega)
    return tol / (4.0 * len(av)) * math.exp(-log_product_ceiling([a * log_inv for a in av], bv))


def product_excess(rhos):
    """prod_j (1 + rho_j) - 1 formed as sum_j rho_j prod_{i<j} (1 + rho_i),
    never as product - 1, so its rounding, 2 u per step, stays relative to
    the result also far below one.  ``rhos`` holds floats, or equal-length
    arrays taken elementwise."""
    grown, excess = 1.0, 0.0
    for rho in rhos:
        excess += rho * grown
        grown += rho * grown
    return excess


def nonzero_mass(omega: float, av: Sequence[float], bv: Sequence[float], tol: float = 1e-14) -> Interval:
    """Certified bracket of sum_{h != 0} omega**E(h) = prod_j (1 + 2 S_j) - 1:
    the :func:`product_excess` of the ends of 2 :func:`weight_sum`, each S_j
    at tolerance tol / (4 s C), C the product's ceiling, widened by the
    excess's rounding, (4 s + 4) u, and rounded outward.  The ends differ
    by the tails and the margins; the upper is within tol plus its margins
    above the mass."""
    s, per_factor = len(av), _factor_tol(omega, av, bv, tol)
    sums = [weight_sum(omega, a, b, per_factor) for a, b in zip(av, bv)]
    lo = product_excess([2.0 * part.lo for part in sums])
    hi = product_excess([2.0 * part.hi for part in sums])
    widen = (4.0 * s + 4.0) * _U
    return Interval(max(math.nextafter(lo * (1.0 - widen) - s * _TINY, 0.0), 0.0),
                    math.nextafter(hi * (1.0 + widen) + s * _TINY, math.inf))


def series_ceiling(c: float, b: float) -> float:
    """Closed-form upper value of sum_{h>=1} exp(-c h**b), c > 0, b >= 1:
    min(e**-c / (1 - e**-c), Gamma(1 + 1/b) c**(-1/b)), since h**b >= h and
    decreasing terms sum to at most the integral of exp(-c t**b) over
    t >= 0.  Taken in log form, it cannot overflow; ``c`` may be up to 8 u
    above its exact value, and that and the rounding are covered."""
    c = c * (1.0 - 16.0 * _U)
    log_c = math.log(c)
    best = min(-c - math.log(-math.expm1(-c)), math.lgamma(1.0 + 1.0 / b) - log_c / b)
    best += 4.0 * (abs(best) + c + abs(log_c) + 8.0) * _U
    return math.exp(best) + _TINY if best < _LOG_HUGE else math.inf


def log_product_ceiling(cv: Sequence[float], bv: Sequence[float]) -> float:
    """Upper value of log prod_j (1 + 2 series_ceiling(c_j, b_j))."""
    logs = [math.log1p(2.0 * series_ceiling(c, b)) for c, b in zip(cv, bv)]
    return math.nextafter(math.fsum(logs) * (1.0 + 4.0 * _U), math.inf)


def trace_ceilings(omega: float, av: Sequence[float], bv: Sequence[float]) -> list[tuple[float, float]]:
    """(theta, log_product_ceiling of (1 - theta) a_j log(1/omega)) at
    theta = 1 - 2**-k, k = 1..10: the trace bound's x-free part."""
    thetas = [1.0 - 2.0**-k for k in range(1, 11)]
    return [(t, log_product_ceiling([(1.0 - t) * a * -math.log(omega) for a in av], bv)) for t in thetas]


def beyond_window_mass(
    omega: float, s: int, x: float, window_weights: Sequence[float], total: float,
    ceilings: Sequence[tuple[float, float]],
) -> tuple[float, float]:
    """Certified upper values of omega**x and of the mass
    sum_{E(h) >= x} omega**E(h) beyond the window.

    The window is the h != 0 in dimension s with float exponent below x,
    weighing ``window_weights``.  Outside it exponents are >= x (1 - (s + 8)
    u), s rounded terms of a possibly scaled weight: ``reach`` with
    log(1/omega) (4 u more).  The mass is the smaller of ``total``, the space's
    :func:`nonzero_mass` upper end, minus the window (by ``math.fsum``, each
    weight w within ((s + 11) log(1/w) + 8) u), which cancels in deep
    windows, and the trace bound

        omega**(theta x) * prod_j (1 + 2 sum_{h>=1} omega**((1-theta) a_j h**b_j)),

    valid for theta in (0, 1) as omega**E <= omega**(theta x + (1-theta) E)
    once E >= x, in log form at the ten ``ceilings`` (:func:`trace_ceilings`).
    """
    log_inv = -math.log(omega)
    reach = x * log_inv * (1.0 - (s + 16.0) * _U)
    sup = math.nextafter(math.exp(-reach) * (1.0 + 4.0 * _U), math.inf) + _TINY

    w = np.asarray(window_weights, dtype=float)
    window = math.fsum(w.tolist())
    err = math.fsum((w * ((s + 12.0) * -np.log(np.maximum(w, _TINY)) + 16.0)).tolist())
    err = err * _U + w.size * _TINY
    by_total = total - (window - err)

    best = math.inf
    for theta, ceiling in ceilings:
        # the subtraction and exp round within (ceiling + 2 theta reach + 4) u
        best = min(best, ceiling - theta * reach + (ceiling + 2.0 * theta * reach + 4.0) * _U)
    by_trace = math.exp(best) + _TINY if best < _LOG_HUGE else math.inf
    return sup, math.nextafter(max(min(by_total, by_trace), 0.0), math.inf)
