"""Approximation from function values on a regular grid.

The algorithm keeps the frequency set A whose weights exceed 1/M and
estimates each kept Fourier coefficient by the sampled character sum
over a regular grid.  Aliasing contaminates each kept coefficient by
the true coefficients over its dual-lattice coset; the error analysis
splits into the truncation mass outside A plus that aliasing mass.

Two mesh selection rules are provided: one that guarantees a target
accuracy eps with n growing polylogarithmically in 1/eps, and an odd
weight-adapted rule whose mesh sizes collapse to 1 as the coordinate
weights grow.  An exact worst-case-error oracle via per-coset singular
values certifies both, with the neglected tail reported as explicit
slack, never absorbed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
import numpy as np

from ._series import truncated_weight_sum
from .errors import CapExceeded, InvalidParameterError
from .grids import (
    DEFAULT_GRID_CAP,
    RegularGrid,
    aliased_coefficients,
    dual_weight_sum,
)
from .index_set import DEFAULT_SET_CAP, IndexSet, _pow_term, _reach, enumerate_below
from .params import KorobovParams, a_values, b_values
from .space import FourierPolynomial

__all__ = [
    "StdAlgorithm",
    "ErrorReport",
    "OracleResult",
    "AccuracyMesh",
    "DEFAULT_COSET_CAP",
    "build_std_algorithm",
    "apply_algorithm",
    "error_upper_bound",
    "gen_error_bound",
    "mesh_for_accuracy",
    "mesh_for_threshold",
    "threshold_algorithm",
    "accuracy_algorithm",
    "exact_worst_case_error",
    "error_report",
]

logger = logging.getLogger("korobov.sampling")

DEFAULT_COSET_CAP = 2000


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


def apply_algorithm(
    alg: StdAlgorithm, f: FourierPolynomial, cap_n: int = DEFAULT_GRID_CAP
) -> FourierPolynomial:
    """Run the algorithm on f: sample on the grid, keep the set A.

    The output is supported on A with each coefficient equal to the
    sampled character sum; function values are actually summed, the
    dual-lattice shortcut is reserved for tests.
    """
    if f.params != alg.params:
        raise InvalidParameterError("term_undefined", "function belongs to a different space")
    members = alg.index_set.members
    if not members:
        return FourierPolynomial(alg.params, {})
    values = aliased_coefficients(alg.grid, f, members, cap=cap_n)
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


def error_upper_bound(alg: StdAlgorithm, tol: float = 1e-14) -> float:
    """Closed-form ceiling sqrt(1/M + M**(B_s+1) * D * F) on the worst-case
    error, with F the halved-exponent weight sum over the nonzero dual
    lattice."""
    b_sum = _b_sum(alg.params)
    d = _damping_factor(alg.params)
    f_sum = dual_weight_sum(alg.params, alg.grid, tol=tol)
    return math.sqrt(1.0 / alg.M + alg.M ** (b_sum + 1.0) * d * f_sum)


def _coset_rest(log_w: float, a: float, b: float, m: int, h: int, tol: float) -> float:
    """sum over l != 0 of omega**(a*|h + m*l|**b), an upper value within
    relative tol of the true sum.

    Once m*l >= |h|, both progressions |h| + m*l and m*l - |h| grow by m
    per step, and (p + m*k)**b >= p**b + m**b * k for b >= 1, so all
    terms after step l sum to at most the two terms at l times q/(1-q),
    q = omega**(a*m**b).  That tail is added, and the sum stops once it
    is below tol times the partial sum.
    """
    q = math.exp(a * float(m) ** b * log_w)
    ratio = q / (1.0 - q)
    r = abs(h)
    total = 0.0
    l = 0
    while True:
        l += 1
        last = math.exp(_pow_term(a, r + m * l, b) * log_w) + math.exp(
            _pow_term(a, m * l - r, b) * log_w
        )
        total += last
        if m * l >= r and last * ratio <= tol * total:
            return total + last * ratio


def gen_error_bound(alg: StdAlgorithm, tol: float = 1e-13) -> float:
    """Sharper ceiling sqrt(1/M + sum_{h in A} aliasing weight of h).

    The aliasing weight of h is the sum over the nonzero dual lattice of
    the weights at h + l.  It factors over coordinates as
    prod_j (own_j + rest_j) - prod_j own_j, with own_j the weight of h_j
    and rest_j the rest of its coset; it is formed without that
    subtraction, as omega**E(h) * sum_j rho_j * prod_{i<j} (1 + rho_i)
    with rho_j = rest_j / own_j, so rounding stays relative to each
    term.  Each rest_j is an upper value within relative ``tol``.
    """
    params = alg.params
    av, bv = a_values(params), b_values(params)
    mesh = alg.grid.mesh
    log_w = -params.log_inv_omega
    cache: dict[tuple[int, int], float] = {}

    def rho(j: int, hj: int) -> float:
        key = (j, abs(hj))
        got = cache.get(key)
        if got is None:
            own = math.exp(_pow_term(av[j], hj, bv[j]) * log_w)
            got = _coset_rest(log_w, av[j], bv[j], mesh[j], hj, tol) / own
            cache[key] = got
        return got

    alias_total = 0.0
    for e, h in zip(alg.index_set.member_exponents, alg.index_set.members):
        grown, spill = 1.0, 0.0
        for j, hj in enumerate(h):
            r = rho(j, hj)
            spill += r * grown
            grown *= 1.0 + r
        alias_total += math.exp(e * log_w) * spill
    return math.sqrt(1.0 / alg.M + alias_total)


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


def threshold_algorithm(
    params: KorobovParams,
    M: float,
    beta: float,
    cap_set: int = DEFAULT_SET_CAP,
) -> StdAlgorithm:
    """Std algorithm with the odd weight-adapted mesh for threshold M.

    Asserts the geometric fact the rule is designed around: every kept
    frequency satisfies |h_j| < (m_j + 1)/2 in every coordinate.
    """
    grid = mesh_for_threshold(params, M, beta)
    alg = build_std_algorithm(params, M, grid, cap_set=cap_set)
    av, bv = a_values(params), b_values(params)
    for j, m in enumerate(grid.mesh):
        reach = _reach(av[j], bv[j], 0.0, alg.threshold)
        if not reach < (m + 1) / 2:
            raise RuntimeError(
                f"mesh rule violated containment: coordinate {j+1} reaches |h|={reach} "
                f"with mesh {m}"
            )
    return alg


def accuracy_algorithm(
    params: KorobovParams,
    eps: float,
    cap_n: int = DEFAULT_GRID_CAP,
    cap_set: int = DEFAULT_SET_CAP,
) -> StdAlgorithm:
    """Std algorithm from the accuracy mesh rule at target eps."""
    choice = mesh_for_accuracy(params, eps, cap_n=cap_n)
    return build_std_algorithm(params, choice.M, choice.grid, cap_set=cap_set)


# ---------------------------------------------------------------------------
# Exact worst-case error oracle.


@dataclass(frozen=True)
class OracleResult:
    """Certified worst-case error: the true value lies in
    [value, sqrt(value**2 + slack_sq)]."""

    value: float
    slack_sq: float
    coset_count: int
    largest_coset: int

    @property
    def upper(self) -> float:
        return math.sqrt(self.value * self.value + self.slack_sq)

    @property
    def slack(self) -> float:
        return self.upper - self.value


def default_truncation(alg: StdAlgorithm) -> float:
    # Keeping exponents to 2.5x the kept threshold makes the discarded
    # weights at most omega**(1.5*threshold) = M**-1.5 relative to 1/M.
    return 2.5 * alg.threshold


def exact_worst_case_error(
    alg: StdAlgorithm,
    trunc_x: float | None = None,
    cap_set: int = DEFAULT_SET_CAP,
    coset_cap: int = DEFAULT_COSET_CAP,
    tol: float = 1e-13,
) -> OracleResult:
    """Worst-case L2 error of the algorithm over the unit ball, exactly on
    the subspace of frequencies with exponent below trunc_x.

    Frequencies split into cosets of the dual lattice; within a coset the
    error acts as (coefficients scaled by weight**0.5) -> (kept minus
    coset total, discarded unchanged), a finite matrix whose largest
    singular value is the coset's exact worst case.  The global value is
    the max over cosets.  The mass beyond trunc_x contributes at most
    slack_sq = omega**trunc_x + (total weight beyond trunc_x) to the
    squared error; it is reported, never folded in.
    """
    params = alg.params
    if trunc_x is None:
        trunc_x = default_truncation(alg)
    if not trunc_x > alg.threshold:
        raise InvalidParameterError(
            "term_undefined",
            f"truncation budget {trunc_x} must exceed the kept threshold {alg.threshold}",
        )
    window = enumerate_below(params, trunc_x, cap=cap_set)
    mesh = alg.grid.mesh
    log_w = -params.log_inv_omega

    cosets: dict[tuple[int, ...], list[float]] = {}
    for e, h in zip(window.member_exponents, window.members):
        key = tuple(hj % m for hj, m in zip(h, mesh))
        cosets.setdefault(key, []).append(e)

    worst = 0.0
    largest = 0
    kept_threshold = alg.threshold
    low_weight_total = 0.0
    for group in cosets.values():
        size = len(group)
        largest = max(largest, size)
        if size > coset_cap:
            raise CapExceeded("coset matrix dimension", coset_cap, needed=size)
        exponents = np.array(group)
        w = np.exp(0.5 * exponents * log_w)
        low_weight_total += float(np.sum(np.exp(exponents * log_w)))
        kept = (exponents < kept_threshold).astype(float)
        if size == 1:
            # kept singleton reproduces itself exactly; a discarded one
            # leaks its own mass
            sigma = 0.0 if kept[0] else float(w[0])
        else:
            matrix = np.diag(w) - np.outer(kept, w)
            sigma = float(np.linalg.svd(matrix, compute_uv=False)[0])
        worst = max(worst, sigma)

    # Total weight mass beyond the truncation window, certified from the
    # full product form minus the enumerated part.
    av, bv = a_values(params), b_values(params)
    total_upper = 1.0
    for a, b in zip(av, bv):
        partial, tail = truncated_weight_sum(params.omega, a, b, tol=tol / (4.0 * params.s))
        total_upper *= 1.0 + 2.0 * (partial + tail)
    tail_mass = max(total_upper - low_weight_total, 0.0)
    slack_sq = math.exp(trunc_x * log_w) + tail_mass
    return OracleResult(
        value=worst,
        slack_sq=slack_sq,
        coset_count=len(cosets),
        largest_coset=largest,
    )


@dataclass(frozen=True)
class ErrorReport:
    """Closed-form ceiling and, when computed, the oracle value.

    The oracle can exceed the ceiling only through slack and rounding;
    a violation beyond 1e-9 means a genuine bug.
    """

    upper_bound: float
    exact: float | None
    exact_slack: float
    n_points: int
    set_size: int

    def __post_init__(self):
        if self.exact is not None and not self.exact <= self.upper_bound + 1e-9:
            raise ValueError(
                f"oracle value {self.exact} exceeds the certified ceiling {self.upper_bound}"
            )


def error_report(
    alg: StdAlgorithm,
    trunc_x: float | None = None,
    with_oracle: bool = True,
    cap_set: int = DEFAULT_SET_CAP,
    coset_cap: int = DEFAULT_COSET_CAP,
) -> ErrorReport:
    bound = error_upper_bound(alg)
    exact = None
    slack = 0.0
    if with_oracle:
        oracle = exact_worst_case_error(alg, trunc_x, cap_set=cap_set, coset_cap=coset_cap)
        exact = oracle.value
        slack = oracle.slack
    return ErrorReport(
        upper_bound=bound,
        exact=exact,
        exact_slack=slack,
        n_points=alg.grid.n,
        set_size=alg.index_set.count,
    )
