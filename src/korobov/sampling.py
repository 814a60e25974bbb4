"""Approximation from function values on a regular grid.

The algorithm keeps the frequency set A whose weights exceed 1/M and
estimates each kept Fourier coefficient by the sampled character sum
over a regular grid.  Aliasing contaminates each kept coefficient by
the true coefficients over its dual-lattice coset; the error analysis
splits into the truncation mass outside A plus that aliasing mass.

Two mesh selection rules are provided: one that guarantees a target
accuracy eps with n growing polylogarithmically in 1/eps, and an odd
weight-adapted rule whose mesh sizes collapse to 1 as the coordinate
weights grow.  Besides the closed-form ceilings here, the exact
worst-case-error oracle of :mod:`korobov.oracle` certifies both.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from ._series import coset_sum_upper, product_excess
from .errors import CapExceeded, InvalidParameterError
from .grids import (
    DEFAULT_GRID_CAP,
    RegularGrid,
    _require_dimension,
    aliased_coefficients,
    dual_weight_sum,
)
from .index_set import DEFAULT_SET_CAP, IndexSet, _pow_term, _reach, enumerate_below
from .oracle import exact_worst_case_error  # noqa: F401  (wrapped by name in bench/tracer.py)
from .params import _U, KorobovParams, a_values, b_values
from .space import FourierPolynomial

__all__ = [
    "StdAlgorithm",
    "AccuracyMesh",
    "build_std_algorithm",
    "apply_algorithm",
    "error_upper_bound",
    "gen_error_bound",
    "mesh_for_accuracy",
    "mesh_for_threshold",
    "threshold_algorithm",
    "accuracy_algorithm",
]

logger = logging.getLogger("korobov.sampling")


@dataclass(frozen=True)
class StdAlgorithm:
    """Sampling algorithm: kept frequency set A plus the grid it samples."""

    params: KorobovParams
    M: float
    grid: RegularGrid
    index_set: IndexSet

    def __post_init__(self):
        if not self.M > 1.0:
            raise InvalidParameterError("term_undefined", f"M must exceed 1, got {self.M}")
        _require_dimension(self.grid, self.params.s)
        expected = math.log(self.M) / self.params.log_inv_omega
        if not math.isclose(self.index_set.threshold, expected, rel_tol=1e-12, abs_tol=1e-12):
            raise InvalidParameterError(
                "term_undefined",
                f"index set threshold {self.index_set.threshold} does not match log(M)/log(1/omega) = {expected}",
            )

    @property
    def threshold(self) -> float:
        return self.index_set.threshold


def build_std_algorithm(
    params: KorobovParams,
    M: float,
    grid: RegularGrid,
    cap_set: int = DEFAULT_SET_CAP,
) -> StdAlgorithm:
    if not M > 1.0:
        raise InvalidParameterError("term_undefined", f"M must exceed 1, got {M}")
    x = math.log(M) / params.log_inv_omega
    index_set = enumerate_below(params, x, cap=cap_set)
    return StdAlgorithm(params=params, M=float(M), grid=grid, index_set=index_set)


def apply_algorithm(alg: StdAlgorithm, f: FourierPolynomial) -> FourierPolynomial:
    """Run the algorithm on f: sample on the grid, keep the set A.

    The output is supported on A with each coefficient equal to the
    sampled character sum; function values are actually summed, the
    dual-lattice shortcut is reserved for tests.  A grid over
    ``DEFAULT_GRID_CAP`` points raises :class:`CapExceeded`.
    """
    if f.params != alg.params:
        raise InvalidParameterError("term_undefined", "function belongs to a different space")
    members = alg.index_set.members
    if not members:
        return FourierPolynomial(alg.params, {})
    values = aliased_coefficients(alg.grid, f, members)
    return FourierPolynomial(alg.params, dict(zip(members, values)))


def _b_sum(params: KorobovParams) -> float:
    return sum(1.0 / b for b in b_values(params))


def _damping_factor(params: KorobovParams) -> float:
    """4**s * prod_j (1 + log(1/omega)**(-1/b_j))."""
    log_inv = params.log_inv_omega
    product = 4.0**params.s
    for b in b_values(params):
        product *= 1.0 + log_inv ** (-1.0 / b)
    return product


# Tolerances of F in error_upper_bound and of each coset rest in gen_error_bound.
_CEILING_TOL = 1e-14
_GEN_TOL = 1e-13


def error_upper_bound(alg: StdAlgorithm) -> float:
    """Closed-form ceiling sqrt(1/M + M**(B_s+1) * D * F) on the worst-case
    error, with F the halved-exponent weight sum over the nonzero dual
    lattice (certified, :func:`dual_weight_sum`), rounded up: B_s + 1 is
    within (2 s + 1) (B_s + 1) u, which the power amplifies by log M, and
    each factor of D within (|log log(1/omega)| + 6) u."""
    params, s = alg.params, alg.params.s
    b_sum = _b_sum(params)
    f_sum = dual_weight_sum(params, alg.grid, tol=_CEILING_TOL)
    radicand = 1.0 / alg.M + alg.M ** (b_sum + 1.0) * _damping_factor(params) * f_sum
    log_m, log_log = abs(math.log(alg.M)), abs(math.log(params.log_inv_omega))
    widen = ((2.0 * s + 1.0) * (b_sum + 1.0) * log_m + s * (log_log + 6.0) + 8.0) * _U
    return math.nextafter(math.sqrt(radicand * (1.0 + widen)), math.inf)


def gen_error_bound(alg: StdAlgorithm) -> float:
    """Sharper ceiling sqrt(1/M + sum_{h in A} aliasing weight of h).

    The aliasing weight of h is the sum over the nonzero dual lattice of
    the weights at h + l.  It factors over coordinates as
    prod_j (own_j + rest_j) - prod_j own_j, with own_j the weight of h_j
    and rest_j the rest of its coset; it is formed without that
    subtraction, as omega**E(h) times the :func:`_series.product_excess`
    of the rho_j = rest_j / own_j, run over the columns of every member
    at once, so rounding stays relative to each term.  Each rest_j is a
    certified upper value within relative ``_GEN_TOL`` and each rho_j, one per
    coordinate and |h_j|, is rounded up.  The radicand is widened by the
    rounding of the sum (|A| u of it), of each member's weight (its
    exponent, below log M, carries (s+6)u of itself) and of the products
    (3s u), and the root is rounded up.
    """
    params, s = alg.params, alg.params.s
    av, bv = a_values(params), b_values(params)
    log_w = -params.log_inv_omega

    def rho(j: int, hj: int) -> float:
        arg = _pow_term(av[j], hj, bv[j]) * log_w
        widen = (6.0 * abs(arg) + 5.0) * _U
        rest = coset_sum_upper(log_w, av[j], bv[j], alg.grid.mesh[j], hj, _GEN_TOL)
        return math.nextafter(rest / math.exp(arg) * (1.0 + widen), math.inf)

    columns = []
    for j, column in enumerate(np.abs(alg.index_set.member_array).T):
        values, where = np.unique(column, return_inverse=True)
        columns.append(np.array([rho(j, hj) for hj in values.tolist()])[where])
    alias_total = 0.0
    for e, spill in zip(alg.index_set.exponent_array.tolist(), product_excess(columns).tolist()):
        alias_total += math.exp(e * log_w) * spill
    per_term = (s + 6.0) * (abs(math.log(alg.M)) + 1.0) + 3.0 * s + 6.0
    widen = (alg.index_set.count + per_term) * _U * alias_total
    radicand = (1.0 / alg.M + alias_total + widen) * (1.0 + 4.0 * _U)
    return math.nextafter(math.sqrt(radicand), math.inf)


# ---------------------------------------------------------------------------
# Mesh selection rules.


@dataclass(frozen=True)
class AccuracyMesh:
    """Grid produced by the accuracy rule, plus the quantities that the
    rule's guarantees are stated in."""

    grid: RegularGrid
    M: float
    m: int
    clamped: bool


def _floor_root(m: int, exponent: float) -> int:
    """floor(m**(1/exponent)) settled by exact integer comparisons."""
    k = int(m ** (1.0 / exponent))
    while float(k + 1) ** exponent <= m:
        k += 1
    while k >= 1 and float(k) ** exponent > m:
        k -= 1
    return k


def mesh_for_accuracy(
    params: KorobovParams, eps: float, cap_n: int = DEFAULT_GRID_CAP
) -> AccuracyMesh:
    """Mesh rule guaranteeing worst-case error at most eps with M = 2/eps**2.

    The common resolution m is the max over coordinates of
    ceil(((4**b_j / a_j) * log(1 + 2s/log(1+eta**2)) / log(1/omega))**B_s),
    with eta a fixed power of eps**2/2; coordinate j then receives mesh
    size floor(m**(1/(B_s*b_j))), so n = prod m_j <= m.  Mesh sizes that
    floor to zero are clamped to 1 and flagged: the guarantee is only
    meaningful when every mesh size is at least 1.
    """
    if not (0.0 < eps < 1.0):
        raise InvalidParameterError("term_undefined", f"eps must lie in (0,1), got {eps}")
    av, bv = a_values(params), b_values(params)
    s = params.s
    b_sum = _b_sum(params)
    d = _damping_factor(params)
    log_inv = params.log_inv_omega

    # eta = (eps^2 / (2 d^(1/(B+2))))^((B+2)/2), kept in log scale: it
    # underflows long before the rest of the formula degenerates.
    log_eta = 0.5 * (b_sum + 2.0) * (2.0 * math.log(eps) - math.log(2.0)) - 0.5 * math.log(d)
    eta = math.exp(log_eta) if log_eta > -700.0 else 0.0
    if eta > 1e-150:
        inner = math.log(1.0 + 2.0 * s / math.log1p(eta * eta))
    else:
        # log1p(eta^2) = eta^2 to double precision, so the expression
        # collapses to log(2 s) - 2 log(eta)
        inner = math.log(2.0 * s) - 2.0 * log_eta
    m = 0
    for a, b in zip(av, bv):
        m = max(m, math.ceil(((4.0**b / a) * inner / log_inv) ** b_sum))
    m = max(int(m), 1)

    clamped = False
    mesh = []
    for b in bv:
        mj = _floor_root(m, b_sum * b)
        if mj < 1:
            # a zero mesh size would mean no sample in that coordinate
            mj = 1
            clamped = True
        mesh.append(mj)
    if clamped:
        logger.warning("accuracy mesh for eps=%g clamped a zero mesh size to 1", eps)
    grid = RegularGrid(tuple(mesh))
    if grid.n > cap_n:
        raise CapExceeded("grid size", cap_n, needed=grid.n)
    return AccuracyMesh(grid=grid, M=2.0 / (eps * eps), m=m, clamped=clamped)


def mesh_for_threshold(params: KorobovParams, M: float, beta: float) -> RegularGrid:
    """Odd weight-adapted mesh: m_j = 2*ceil(((log M)/(a_j**beta*log(1/omega)))**(1/b_j)) - 1.

    Every mesh size is odd, and m_j = 1 as soon as
    a_j >= ((log M)/log(1/omega))**(1/beta), so only finitely many
    coordinates are ever resolved.
    """
    if not M > 1.0:
        raise InvalidParameterError("term_undefined", f"M must exceed 1, got {M}")
    if not (0.0 < beta < 1.0):
        raise InvalidParameterError("term_undefined", f"beta must lie in (0,1), got {beta}")
    av, bv = a_values(params), b_values(params)
    ratio = math.log(M) / params.log_inv_omega
    mesh = []
    for a, b in zip(av, bv):
        arg = (ratio / a**beta) ** (1.0 / b)
        mesh.append(2 * max(1, math.ceil(arg)) - 1)
    return RegularGrid(tuple(mesh))


def threshold_algorithm(params: KorobovParams, M: float, beta: float) -> StdAlgorithm:
    """Std algorithm with the odd weight-adapted mesh for threshold M.

    Asserts the geometric fact the rule is designed around: every kept
    frequency satisfies |h_j| < (m_j + 1)/2 in every coordinate.
    """
    grid = mesh_for_threshold(params, M, beta)
    alg = build_std_algorithm(params, M, grid)
    av, bv = a_values(params), b_values(params)
    for j, m in enumerate(grid.mesh):
        reach = _reach(av[j], bv[j], 0.0, alg.threshold)
        if not reach < (m + 1) / 2:
            raise RuntimeError(
                f"mesh rule violated containment: coordinate {j+1} reaches |h|={reach} "
                f"with mesh {m}"
            )
    return alg


def accuracy_algorithm(params: KorobovParams, eps: float) -> StdAlgorithm:
    """Std algorithm from the accuracy mesh rule at target eps."""
    choice = mesh_for_accuracy(params, eps)
    return build_std_algorithm(params, choice.M, choice.grid)
