"""Certified truncation of the one-dimensional weight series.

Every infinite sum in this package reduces to series of the form
sum_{h>=1} omega**(a*(scale*h)**b) * factor(h) with |factor| <= 1.
Because (scale*h)**b >= (scale*H)**b * (1 + (h-H)/H) for h >= H >= 1 and
b >= 1, the tail after H is dominated by a geometric series, which gives
a computable remainder bound; callers receive the partial sum and that
bound separately so nothing is silently absorbed.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = ["truncated_weight_sum", "weight_sum_upper"]

_MAX_TERMS = 10**7
_U = 2.0**-53  # unit roundoff of float64


def truncated_weight_sum(
    omega: float,
    a: float,
    b: float,
    scale: float = 1.0,
    tol: float = 1e-16,
    factor: Callable[[int], float] | None = None,
) -> tuple[float, float]:
    """Return (partial, tail_bound) for sum_{h>=1} omega**(a*(scale*h)**b)*factor(h).

    ``factor`` must satisfy |factor(h)| <= 1 (it defaults to 1); the true
    sum then lies within tail_bound of the partial sum, tail_bound < tol.
    """
    log_w = math.log(omega)
    partial = 0.0
    h = 0
    while True:
        h += 1
        if h > _MAX_TERMS:
            raise RuntimeError("weight series did not reach the requested tolerance")
        exponent = a * (scale * h) ** b
        term = math.exp(exponent * log_w)
        partial += term * (factor(h) if factor is not None else 1.0)
        # Tail bound anchored at H = h: terms at h+k are at most
        # omega**(a*(scale*h)**b) * q**k with q = omega**(a*(scale*h)**b / h).
        q = math.exp(exponent * log_w / h)
        tail = term * q / (1.0 - q) if q < 1.0 else math.inf
        if tail < tol:
            return partial, tail


def weight_sum_upper(omega: float, a: float, b: float, tol: float = 1e-16) -> float:
    """Certified upper value of sum_{h>=1} omega**(a*h**b), within about
    tol above it.

    The terms are formed by numpy and summed by ``math.fsum``; the tail
    after the last term H is bounded as in :func:`truncated_weight_sum`.
    Each term's exponent a*h**b*log(omega) carries a relative error of a
    few units u = 2**-53, so its value a relative error of at most
    (4*|exponent| + 4) u; the sum is widened by that at the largest
    exponent used, plus the rounding of the tail, and rounded up.
    """
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
    partial = math.fsum(terms[: last + 1].tolist())
    margin = (4.0 * abs(float(exponent[last])) + 8.0) * _U
    return math.nextafter((partial + float(tails[last])) * (1.0 + margin), math.inf)
