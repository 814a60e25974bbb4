"""Integration over the unit cube by grid rules.

Averaging function values over a regular grid integrates every Fourier
mode outside the dual lattice exactly, so the worst-case integration
error over the unit ball is the square root of the weight mass on the
nonzero dual lattice, attained by the element proportional to those
weights.  Any sampling approximation algorithm induces an integration
rule whose error it dominates; for the grid algorithm the induced rule
is the uniform grid rule itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._series import truncated_weight_sum
from .errors import CapExceeded, InvalidParameterError
from .grids import DEFAULT_GRID_CAP, RegularGrid, sample_mean
from .index_set import DEFAULT_SET_CAP, _count, _enumerate
from .params import KorobovParams, a_values, b_values
from .space import FourierPolynomial

__all__ = [
    "GridRule",
    "IntErrorResult",
    "integrate",
    "worst_case_int_error",
    "extremal_integrand",
    "induced_rule",
    "small_n_lower_bound",
]


@dataclass(frozen=True)
class GridRule:
    """Equal-weight quadrature over a regular grid; weights sum to one."""

    grid: RegularGrid

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def weight(self) -> float:
        return 1.0 / self.grid.n


def integrate(rule: GridRule, f: FourierPolynomial, cap_n: int = DEFAULT_GRID_CAP) -> complex:
    """Apply the rule: the mean of f over the grid points."""
    return sample_mean(rule.grid, f, cap=cap_n)


def _dual_window(
    params: KorobovParams, grid: RegularGrid, trunc_x: float, cap: int
) -> list[tuple[float, tuple[int, ...]]]:
    """(exponent, k) for the nonzero dual-lattice points m*k below trunc_x.

    A dual point is (m_1*k_1, ..., m_s*k_s), so its exponent equals the
    exponent of k under the rescaled weights a_j * m_j**b_j; the counting
    machinery applies unchanged to those.
    """
    av, bv = a_values(params), b_values(params)
    scaled = tuple(a * float(m) ** b for a, b, m in zip(av, bv, grid.mesh))
    total = _count(scaled, bv, trunc_x)
    if total > cap:
        raise CapExceeded("dual lattice window", cap, needed=total)
    return [(e, k) for e, k in _enumerate(scaled, bv, trunc_x) if any(k)]


def worst_case_int_error(
    params: KorobovParams,
    rule: GridRule,
    trunc_x: float,
    cap: int = DEFAULT_SET_CAP,
    tol: float = 1e-14,
) -> "IntErrorResult":
    """Worst-case integration error of the rule over the unit ball.

    Equals sqrt(sum of weights over the nonzero dual lattice); the sum is
    enumerated below trunc_x and the remaining dual mass is bounded by
    the certified product form, reported as slack.
    """
    if not trunc_x > 0.0:
        raise InvalidParameterError("term_undefined", f"trunc_x must be positive, got {trunc_x}")
    if rule.grid.s != params.s:
        raise InvalidParameterError("term_undefined", "grid dimension mismatch")
    log_w = -params.log_inv_omega
    low = sum(math.exp(e * log_w) for e, _ in _dual_window(params, rule.grid, trunc_x, cap))

    av, bv = a_values(params), b_values(params)
    total_upper = 1.0
    for a, b, m in zip(av, bv, rule.grid.mesh):
        partial, tail = truncated_weight_sum(params.omega, a, b, scale=float(m), tol=tol / (4 * params.s))
        total_upper *= 1.0 + 2.0 * (partial + tail)
    tail_mass = max(total_upper - 1.0 - low, 0.0)
    return IntErrorResult(value=math.sqrt(low), tail_sq=tail_mass)


@dataclass(frozen=True)
class IntErrorResult:
    """Certified integration error: the true value lies in
    [value, sqrt(value**2 + tail_sq)]."""

    value: float
    tail_sq: float

    @property
    def upper(self) -> float:
        return math.sqrt(self.value * self.value + self.tail_sq)

    @property
    def slack(self) -> float:
        return self.upper - self.value


def extremal_integrand(
    params: KorobovParams, rule: GridRule, trunc_x: float, cap: int = DEFAULT_SET_CAP
) -> FourierPolynomial:
    """Unit-ball element attaining the truncated worst-case error:
    coefficients proportional to the dual-lattice weights."""
    window = _dual_window(params, rule.grid, trunc_x, cap)
    if not window:
        raise InvalidParameterError("term_undefined", "no dual-lattice point below trunc_x")
    log_w = -params.log_inv_omega
    mesh = rule.grid.mesh
    weights = {tuple(kj * m for kj, m in zip(k, mesh)): math.exp(e * log_w) for e, k in window}
    scale = 1.0 / math.sqrt(sum(weights.values()))
    return FourierPolynomial(params, {l: w * scale for l, w in weights.items()})


def induced_rule(alg) -> GridRule:
    """Integration rule induced by a sampling approximation algorithm.

    Integrating the algorithm's output gives each sample the weight
    (1/n) * [0 kept], because only the constant mode has a nonzero
    integral; the kept set always contains 0 (its threshold is positive),
    so the induced rule is the uniform grid rule.
    """
    zero = (0,) * alg.params.s
    if zero not in alg.index_set:
        raise InvalidParameterError("term_undefined", "kept set does not contain the zero frequency")
    return GridRule(alg.grid)


def small_n_lower_bound(params: KorobovParams, n: int) -> float | None:
    """Lower bound 2**(-s/2) * omega**(sum_j a_j / 2) on the minimal
    integration error of any rule with n points; valid only for n < 2**s,
    otherwise None ("not applicable")."""
    if n >= 2**params.s:
        return None
    half_sum = 0.5 * sum(a_values(params))
    return 2.0 ** (-params.s / 2.0) * params.omega**half_sum
