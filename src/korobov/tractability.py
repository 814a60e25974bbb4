"""Convergence-rate and tractability verdicts from the weight families.

Every verdict is a statement about the tails of the two weight
sequences: the reciprocal sum of b decides whether the exponential
convergence rate survives growing dimension, the divergence of a
decides weak tractability, and the exponential growth rate of a decides
the polynomial regimes.  All three tail facts come from the families'
closed forms; numeric series carry certified interval brackets which
propagate into the exponent bracket.

Weak tractability is measured against the relaxed criterion (the limit
of log n over s + log(1/eps) vanishes); reports record that choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidParameterError, UndecidableTail
from .params import Interval, SequenceFamily, _require_positive_int

__all__ = [
    "TractabilityReport",
    "RateFit",
    "analyze",
    "derive_report",
    "fit_exponential_rate",
    "staircase_corners",
    "WT_CRITERION",
]

WT_CRITERION = "lim log(n)/(s + log(1/eps)) = 0"


@dataclass(frozen=True)
class TractabilityReport:
    """Rates and verdicts for one pair of weight families at dimension s.

    ``None`` fields mean "unknown" (an explicit family without a tail
    rule); infinite quantities are ``math.inf``.  The strong-polynomial
    exponent is only ever a bracket: the exact value is open whenever the
    growth rate is finite.
    """

    s: int
    b_sum_s: float
    b_sum: Interval | None
    a_limit: float | None
    a_growth: float | None
    exp_rate_s: float
    uexp: bool | None
    uexp_rate: Interval | None
    wt: bool | None
    pt_spt: bool | None
    tau_lower: float | None
    tau_upper: float | None
    wt_criterion: str = WT_CRITERION

    @property
    def has_unknowns(self) -> bool:
        return None in (self.uexp, self.wt, self.pt_spt)

    def to_dict(self) -> dict:
        def enc(v):
            if v is None:
                return "unknown"
            if isinstance(v, Interval):
                return "infinite" if v.is_infinite else [v.lo, v.hi]
            if isinstance(v, float) and math.isinf(v):
                return "infinite"
            return v

        return {
            "s": self.s,
            "b_sum_s": self.b_sum_s,
            "b_sum": enc(self.b_sum),
            "a_limit": enc(self.a_limit),
            "a_growth": enc(self.a_growth),
            "exp_rate_s": self.exp_rate_s,
            "uexp": enc(self.uexp),
            "uexp_rate": enc(self.uexp_rate),
            "wt": enc(self.wt),
            "pt_spt": enc(self.pt_spt),
            "tau_lower": enc(self.tau_lower),
            "tau_upper": enc(self.tau_upper),
            "wt_criterion": self.wt_criterion,
        }


def derive_report(
    s: int,
    b_sum_s: float,
    b_sum: Interval | None,
    a_limit: float | None,
    a_growth: float | None,
) -> TractabilityReport:
    """Turn the three tail facts into verdicts.

    Logic: uniform exponential convergence holds iff the reciprocal sum
    of b converges, with rate its reciprocal; weak tractability holds iff
    a diverges; the polynomial and strong polynomial regimes coincide and
    hold iff both the reciprocal sum converges and the growth rate of a
    is positive, in which case the exponent lies between
    max(b_sum, log3/growth) and b_sum + log3/growth (log3/inf = 0, so an
    infinite growth rate pins the exponent to the reciprocal sum).
    """
    uexp = None if b_sum is None else not b_sum.is_infinite
    uexp_rate = b_sum.reciprocal() if (b_sum is not None and not b_sum.is_infinite) else None
    wt = None if a_limit is None else math.isinf(a_limit)

    if b_sum is None or a_growth is None:
        pt_spt = False if (b_sum is not None and b_sum.is_infinite) else None
    else:
        pt_spt = (not b_sum.is_infinite) and a_growth > 0.0

    tau_lower = tau_upper = None
    if pt_spt:
        ratio = math.log(3.0) / a_growth  # 0.0 when the growth rate is infinite
        tau_lower = max(b_sum.lo, ratio)
        tau_upper = b_sum.hi + ratio

    return TractabilityReport(
        s=s,
        b_sum_s=b_sum_s,
        b_sum=b_sum,
        a_limit=a_limit,
        a_growth=a_growth,
        exp_rate_s=1.0 / b_sum_s,
        uexp=uexp,
        uexp_rate=uexp_rate,
        wt=wt,
        pt_spt=pt_spt,
        tau_lower=tau_lower,
        tau_upper=tau_upper,
    )


def _check_infinite_terms(family: SequenceFamily, name: str) -> None:
    """The whole infinite sequence must stay >= 1 for verdicts to apply."""
    minimum = family.min_term_overall()
    if not minimum >= 1.0:
        raise InvalidParameterError(
            f"{name}_below_one", f"{name} terms drop to {minimum} < 1 in the tail"
        )


def analyze(a: SequenceFamily, b: SequenceFamily, s: int) -> TractabilityReport:
    """Classify the family pair at dimension s.

    Families with an undecidable tail produce "unknown" fields rather
    than guesses; everything decidable is still reported.
    """
    _require_positive_int(s, "s", "dimension_not_positive")
    for j in range(1, s + 1):
        if not a.term(j) >= 1.0:
            raise InvalidParameterError("a_below_one", f"a_{j} = {a.term(j)} < 1")
        if not b.term(j) >= 1.0:
            raise InvalidParameterError("b_below_one", f"b_{j} = {b.term(j)} < 1")

    try:
        _check_infinite_terms(a, "a")
        if not a.is_nondecreasing():
            raise InvalidParameterError("a_nonmonotone", "a must be nondecreasing")
        a_limit = a.limit()
        a_growth = a.log_growth()
    except UndecidableTail:
        a_limit = None
        a_growth = None

    try:
        _check_infinite_terms(b, "b")
        b_sum = b.reciprocal_sum()
    except UndecidableTail:
        b_sum = None

    b_sum_s = sum(1.0 / b.term(j) for j in range(1, s + 1))
    return derive_report(s, b_sum_s, b_sum, a_limit, a_growth)


# ---------------------------------------------------------------------------
# Empirical rate fitting.


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log log(1/e) against log n."""

    slope: float
    intercept: float
    residual: float


def fit_exponential_rate(pairs: Sequence[tuple[float, float]]) -> RateFit:
    """Fit e(n) ~ q**(n**p): regress log log(1/e) on log n.

    Requires at least 8 pairs with errors strictly decreasing and below
    one; staircase data (plateaus from weight ties) should be reduced
    with :func:`staircase_corners` first.  For sweeps deep enough that e
    underflows, compute log(1/e) directly and use
    :func:`fit_exponential_rate_log`.
    """
    ns = [float(n) for n, _ in pairs]
    es = np.array([float(e) for _, e in pairs])
    if np.any(es >= 1.0) or np.any(es <= 0.0):
        raise InvalidParameterError("term_undefined", "errors must lie strictly inside (0,1)")
    if np.any(np.diff(es) >= 0.0):
        raise InvalidParameterError("term_undefined", "errors must be strictly decreasing in n")
    return fit_exponential_rate_log(list(zip(ns, np.log(1.0 / es))))


def fit_exponential_rate_log(pairs: Sequence[tuple[float, float]]) -> RateFit:
    """Same fit with the error supplied as log(1/e) (positive, strictly
    increasing in n), which stays representable for arbitrarily small e."""
    if len(pairs) < 8:
        raise InvalidParameterError("term_undefined", f"need at least 8 pairs, got {len(pairs)}")
    ns = np.array([float(n) for n, _ in pairs])
    ls = np.array([float(v) for _, v in pairs])
    if np.any(ls <= 0.0):
        raise InvalidParameterError("term_undefined", "log(1/e) values must be positive")
    if np.any(np.diff(ls) <= 0.0):
        raise InvalidParameterError("term_undefined", "errors must be strictly decreasing in n")
    xs = np.log(ns)
    ys = np.log(ls)
    slope, intercept = np.polyfit(xs, ys, 1)
    residual = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    return RateFit(slope=float(slope), intercept=float(intercept), residual=residual)


def staircase_corners(pairs: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """Collapse runs of equal second component, keeping the largest n.

    Weight ties make both the error and log(1/e) staircases; the fits
    want one point per tread, at its right edge.
    """
    out: list[tuple[float, float]] = []
    for n, e in pairs:
        if out and out[-1][1] == e:
            out[-1] = (n, e)
        else:
            out.append((n, e))
    return out
