"""Integration over the unit cube by grid rules.

Averaging function values over a regular grid integrates every Fourier
mode outside the dual lattice exactly, so the worst-case integration
error over the unit ball is the square root of the weight mass on the
nonzero dual lattice, attained by the element proportional to those
weights.  That lattice is a product over coordinates, so the mass has
an exact product form, bracketed in closed form by ``_series``.  Any
sampling approximation algorithm induces an integration rule whose
error it dominates.  Integrating the grid algorithm's output gives each
sample the weight (1/n) * [0 kept], and its kept set always contains 0
(its threshold is positive), so the induced rule is ``GridRule(alg.grid)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._series import nonzero_mass
from .errors import CapExceeded, InvalidParameterError
from .grids import RegularGrid, _require_dimension, sample_mean
from .index_set import DEFAULT_SET_CAP, _count, _enumerate
from .params import KorobovParams, a_values, b_values
from .space import FourierPolynomial

__all__ = [
    "GridRule",
    "IntErrorResult",
    "integrate",
    "worst_case_int_error",
    "extremal_integrand",
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


def integrate(rule: GridRule, f: FourierPolynomial) -> complex:
    """Apply the rule: the mean of f over the grid points.  A grid over
    ``DEFAULT_GRID_CAP`` points raises :class:`CapExceeded`."""
    return sample_mean(rule.grid, f)


def _scaled_weights(params: KorobovParams, grid: RegularGrid) -> list[float]:
    """Rescaled weights a_j * m_j**b_j, under which k has the exponent of
    the dual point (m_1*k_1, ..., m_s*k_s)."""
    return [a * float(m) ** b for a, b, m in zip(a_values(params), b_values(params), grid.mesh)]


def _dual_window(
    params: KorobovParams, grid: RegularGrid, trunc_x: float
) -> list[tuple[float, tuple[int, ...]]]:
    """(exponent, k) for the nonzero dual points below trunc_x, enumerated
    on the rescaled weights: the counting machinery applies unchanged.
    A window over ``DEFAULT_SET_CAP`` points raises :class:`CapExceeded`."""
    scaled, bv = _scaled_weights(params, grid), b_values(params)
    total = _count(scaled, bv, trunc_x)
    if total > DEFAULT_SET_CAP:
        raise CapExceeded("dual lattice window", DEFAULT_SET_CAP, needed=total)
    return [(e, k) for e, k in _enumerate(scaled, bv, trunc_x) if any(k)]


# Tolerance of the closed-form bracket, relative to the mass.
_INT_TOL = 1e-14


def worst_case_int_error(params: KorobovParams, rule: GridRule, trunc_x: float) -> "IntErrorResult":
    """Worst-case integration error of the rule over the unit ball.

    The dual lattice of a product grid is a product, so the squared error,
    the weight mass on the nonzero dual lattice, is exactly
    prod_j (1 + 2 S(a_j m_j**b_j, b_j)) - 1 over the rescaled weights.  It
    is bracketed in closed form, with no window, by one
    :func:`nonzero_mass`: ``value`` is the square root of its lower end,
    rounded down, and ``tail_sq`` the gap up to its upper end, rounded up:
    the terms' rounding margins and the dropped series tails, within
    ``_INT_TOL`` relative to the mass (taken relative to its leading term).
    The whole dual lattice is summed, so no cap applies and ``trunc_x``,
    which must be positive, does not change the result.
    """
    if not trunc_x > 0.0:
        raise InvalidParameterError("term_undefined", f"trunc_x must be positive, got {trunc_x}")
    _require_dimension(rule.grid, params.s)
    bv = b_values(params)
    scaled = _scaled_weights(params, rule.grid)
    # the mass is at least its leading term 2 omega**min(scaled): a tol
    # relative to that keeps the dropped tails a rounding width of it
    tol = _INT_TOL * min(1.0, max(2.0 * params.omega ** min(scaled), 1e-290))
    mass = nonzero_mass(params.omega, scaled, bv, tol)
    value = math.nextafter(math.sqrt(mass.lo), 0.0)
    # value**2 is rounded down before the subtraction, so the gap covers it
    square = math.nextafter(value * value, 0.0)
    return IntErrorResult(value=value, tail_sq=math.nextafter(max(mass.hi - square, 0.0), math.inf))


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


def extremal_integrand(params: KorobovParams, rule: GridRule, trunc_x: float) -> FourierPolynomial:
    """Unit-ball element attaining the truncated worst-case error:
    coefficients proportional to the dual-lattice weights."""
    window = _dual_window(params, rule.grid, trunc_x)
    if not window:
        raise InvalidParameterError("term_undefined", "no dual-lattice point below trunc_x")
    log_w = -params.log_inv_omega
    mesh = rule.grid.mesh
    weights = {tuple(kj * m for kj, m in zip(k, mesh)): math.exp(e * log_w) for e, k in window}
    scale = 1.0 / math.sqrt(sum(weights.values()))
    return FourierPolynomial(params, {l: w * scale for l, w in weights.items()})


def small_n_lower_bound(params: KorobovParams, n: int) -> float | None:
    """Lower bound 2**(-s/2) * omega**(sum_j a_j / 2) on the minimal
    integration error of any rule with n points; valid only for n < 2**s,
    otherwise None ("not applicable")."""
    if n >= 2**params.s:
        return None
    half_sum = 0.5 * sum(a_values(params))
    return 2.0 ** (-params.s / 2.0) * params.omega**half_sum
