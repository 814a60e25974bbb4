"""Approximation from function values on a regular grid.

The algorithm keeps the frequency set A whose weights exceed 1/M and
estimates each kept Fourier coefficient by the sampled character sum
over a regular grid.  Aliasing contaminates each kept coefficient by
the true coefficients over its dual-lattice coset; the error analysis
splits into the truncation mass outside A plus that aliasing mass.

Two mesh selection rules are provided: one that guarantees a target
accuracy eps with n growing polylogarithmically in 1/eps, and an odd
weight-adapted rule whose mesh sizes collapse to 1 as the coordinate
weights grow.  An exact worst-case-error oracle certifies both: it
brackets the top singular value of every dual-lattice coset's error
matrix by certified probes of an inertia count, each costing a few sums
per coset, placed by a safeguarded Newton step and run on all cosets at
once, so no matrix is formed; ``_oracle_many`` runs several algorithms'
oracles in one such loop, over one window per truncation budget.  The
bracket gap and the neglected tail are reported as explicit slack, never
absorbed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._series import beyond_window_mass, coset_sum_upper, nonzero_mass, product_excess
from .errors import CapExceeded, InvalidParameterError
from .grids import (
    DEFAULT_GRID_CAP,
    RegularGrid,
    _require_dimension,
    aliased_coefficients,
    dual_weight_sum,
)
from .index_set import DEFAULT_SET_CAP, IndexSet, _pow_term, _reach, enumerate_below
from .params import _U, KorobovParams, a_values, b_values
from .space import FourierPolynomial

__all__ = [
    "StdAlgorithm",
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


def default_truncation(threshold: float) -> float:
    # Keeping exponents to 2.5x the kept threshold makes the discarded
    # weights at most omega**(1.5*threshold) = M**-1.5 relative to 1/M.
    return 2.5 * threshold


# A group stops once hi <= lo * (1 + _BRACKET_RTOL), a few ulps.
_BRACKET_RTOL = 2.0**-50
# Where a probe lands between lo and hi when no Newton point is taken:
# the geometric midpoint (entry 0), then, after an undecided probe, the
# points a quarter and three quarters of the way; once they are used up
# the group keeps its certified bracket.
_RETRY_AT = np.array([0.5, 0.25, 0.75])
_MAX_PROBES = 200
# A group also stops once hi - lo is within this many resolutions
# (rounding band of det S over its slope) measured at its last undecided
# probe: three nudges, below which a certified probe narrows it little.
_SETTLED = 6.0


def _top_sq_brackets(
    sq: np.ndarray,
    kept: np.ndarray,
    ids: np.ndarray,
    n_groups: int,
    owner: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Certified brackets lo <= sigma_max(M_g)**2 <= hi for every group g.

    Group g holds the entries with ids == g, stored contiguously, kept
    entries first and each part with sq descending (a coset sorted by
    exponent is).  Its matrix is
    M = D - k w^T with w = sqrt(sq), D = diag(w), k the 0/1 kept mask and
    p = |kept|, so M^T M = D**2 + V C V^T with V = [D k, w] and
    C = [[0, -1], [-1, p]].  Haynsworth inertia additivity on
    [[D**2 - lam, V], [V^T, -C^-1]] gives, for lam off the poles w_i**2,

        #{eig(M^T M) > lam} = #{i : w_i**2 > lam} + pos(S) - 1,
        S = [[p - alpha, 1 - alpha], [1 - alpha, -alpha - beta]],

    with alpha and beta the sums of w_i**2 / (w_i**2 - lam) over the kept
    and the discarded entries, so det S = alpha beta - (p - 2) alpha - p beta - 1.
    A probe costs those sums, taken for every live group at once with
    the absolute rounding bound (n + 4) * u * sum|terms|, and the two sums
    behind the slope of det S; it moves lo or hi only when the signs of
    det S and S_11 are certified.

    A safeguarded Newton step on det S chooses where the next probe
    goes, and nothing else: it is nudged past the root by twice the
    resolution (the rounding band over the slope) so that both ends
    close in, and it is taken when it lands strictly inside (lo, hi) and
    is under half the previous step.  Otherwise the probe goes to the
    geometric midpoint, or after an undecided probe a quarter or three
    quarters of the way.  A group stops at a few-ulp bracket, at three
    undecided probes in a row, or once its bracket is within
    ``_SETTLED`` resolutions.

    lo starts at the largest row or column norm**2 (a Rayleigh quotient),
    hi at 2 * ||M||_F**2; a group without kept entries is diagonal and
    exact.  ``owner[g]`` is the job of group g (``None``: one job), and
    each job's maximum is taken apart: a group whose hi falls below the
    largest lo of its job cannot hold that maximum and stops early with a
    valid but wider bracket.  Every group's probes, and so its lo and hi,
    are those of a call on its job alone.
    """
    size = np.bincount(ids, minlength=n_groups)
    start = np.cumsum(size) - size
    p = np.bincount(ids, weights=kept, minlength=n_groups)
    n = size.astype(float)
    kept_sq = np.where(kept, sq, 0.0)
    kept_total = np.bincount(ids, weights=kept_sq, minlength=n_groups)
    disc_total = np.bincount(ids, weights=sq - kept_sq, minlength=n_groups)
    n_kept = p.astype(np.int64)
    has_kept = n_kept > 0
    kept_max = np.where(has_kept, sq[start], 0.0)
    kept_min = np.where(has_kept, sq[start + np.maximum(n_kept - 1, 0)], 0.0)
    disc_max = np.where(n_kept < size, sq[np.minimum(start + n_kept, sq.size - 1)], 0.0)

    # Rayleigh quotients, each rounded down: discarded rows (w_i**2),
    # discarded and kept columns ((p +- 1) w_j**2) and the lightest kept
    # row (sum of the other w_j**2).
    down = 1.0 - 4.0 * _U
    kept_row = (kept_total - kept_min) + disc_total - (n + 2.0) * _U * (kept_total + disc_total)
    lo = np.maximum.reduce(
        [
            disc_max,
            disc_max * (p + 1.0) * down,
            kept_max * (p - 1.0) * down,
            np.where(has_kept, kept_row, 0.0),
        ]
    )
    # ||M||_F**2 = (p - 1) * kept total + (p + 1) * discarded total, with a
    # rounding error far below the factor 2.
    hi = np.where(has_kept, 2.0 * ((p - 1.0) * kept_total + (p + 1.0) * disc_total), disc_max)

    # Arrays of the live groups and their entries, kept and discarded
    # apart; k_id and d_id index the live groups.  Per group, guess is
    # the Newton point for the next probe (nan: none), step the length of
    # the last Newton step and res the resolution at the last undecided
    # probe.
    groups, p_l, scale = np.arange(n_groups), p, (n + 4.0) * _U
    lo_l, hi_l, tries = lo.copy(), hi.copy(), np.zeros(n_groups, dtype=np.int64)
    guess, step, res = np.full(n_groups, np.nan), np.full(n_groups, np.inf), np.zeros(n_groups)
    k_sq, k_id = sq[kept], ids[kept]
    d_sq, d_id = sq[~kept], ids[~kept]
    owner = np.zeros(n_groups, dtype=np.int64) if owner is None else np.asarray(owner)
    floor = np.zeros(int(owner.max(initial=-1)) + 1)  # per job, the largest lo so far
    np.maximum.at(floor, owner, lo)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_MAX_PROBES):
            live = (hi_l > lo_l * (1.0 + _BRACKET_RTOL)) & (hi_l >= floor[owner])
            live &= (tries < _RETRY_AT.size) & (hi_l - lo_l > _SETTLED * res)
            if not live.all():
                local = np.cumsum(live) - 1
                keep_k, keep_d = live[k_id], live[d_id]
                k_sq, k_id = k_sq[keep_k], local[k_id[keep_k]]
                d_sq, d_id = d_sq[keep_d], local[d_id[keep_d]]
                groups, p_l, scale, owner = groups[live], p_l[live], scale[live], owner[live]
                lo_l, hi_l, tries = lo_l[live], hi_l[live], tries[live]
                guess, step, res = guess[live], step[live], res[live]
            if groups.size == 0:
                break
            m = groups.size
            mid = np.where(lo_l > 0.0, np.sqrt(lo_l) * np.sqrt(hi_l), 0.5 * hi_l)
            lam = np.where(tries == 0, mid, lo_l + _RETRY_AT[tries] * (hi_l - lo_l))
            lam = np.where((guess > lo_l) & (guess < hi_l), guess, lam)
            lam_k = lam[k_id]
            gap_k, gap_d = k_sq - lam_k, d_sq - lam[d_id]
            t_k = k_sq / gap_k
            r_k = lam_k / gap_k  # t_k - 1, without its cancellation
            t_d = d_sq / gap_d
            alpha = np.bincount(k_id, weights=t_k, minlength=m)
            shift = np.bincount(k_id, weights=r_k, minlength=m)  # alpha - p
            beta = np.bincount(d_id, weights=t_d, minlength=m)
            err_a = scale * np.bincount(k_id, weights=np.abs(t_k), minlength=m)
            err_s = scale * np.bincount(k_id, weights=np.abs(r_k), minlength=m)
            # lam > lo >= (p + 1) * max discarded w**2, so every discarded
            # term is negative and |beta| is the sum of their magnitudes;
            # for the same reason only kept poles can lie above lam.
            err_b = scale * np.abs(beta)
            above = np.bincount(k_id, weights=k_sq > lam_k, minlength=m)
            # det S in two exact forms, each summed term by term with its
            # own rounding bound: alpha beta - (p - 2) alpha - p beta - 1
            # stays accurate when lam is far above the kept poles (alpha
            # small, p large), and shift (beta - p + 2) - (p - 1)**2 when it
            # is far below them (shift small, p = 1).  Either may certify
            # the sign.
            ab, pa, pb = alpha * beta, (p_l - 2.0) * alpha, p_l * beta
            det_a = ab - pa - pb - 1.0
            err_det_a = (
                np.abs(beta - p_l + 2.0) * err_a
                + np.abs(alpha - p_l) * err_b
                + err_a * err_b
                + 6.0 * _U * (np.abs(ab) + np.abs(pa) + np.abs(pb) + 1.0)
            ) * (1.0 + 16.0 * _U)
            sb, ps, sq_p = shift * beta, (p_l - 2.0) * shift, (p_l - 1.0) ** 2
            det_s = sb - ps - sq_p
            err_det_s = (
                np.abs(beta - p_l + 2.0) * err_s
                + np.abs(shift) * err_b
                + err_s * err_b
                + 6.0 * _U * (np.abs(sb) + np.abs(ps) + sq_p)
            ) * (1.0 + 16.0 * _U)
            det_pos = (det_a > err_det_a) | (det_s > err_det_s)
            det_neg = (det_a < -err_det_a) | (det_s < -err_det_s)
            # S_11 = p - alpha = -shift fixes the sign pattern once det S > 0
            one = det_neg
            two = det_pos & (shift < -err_s)
            zero = det_pos & (shift > err_s)
            decided = one | two | zero
            # #{eig > lam} >= 1 exactly when lam lies below the top eigenvalue
            below = decided & (above + one + 2.0 * two >= 2.0)
            lo_l = np.where(below, np.maximum(lo_l, lam), lo_l)
            hi_l = np.where(decided & ~below, np.minimum(hi_l, lam), hi_l)
            tries = np.where(decided, 0, tries + 1)

            # The next point: a Newton step on det S, whose derivative is
            # alpha' (beta - p + 2) + beta' shift with alpha' and beta' the
            # sums of w_i**2 / (w_i**2 - lam)**2, taken on the form with the
            # smaller band.  For p = 1, det S = shift (beta + 1), and the
            # pole of shift at the kept weight is no eigenvalue: the step is
            # taken on beta + 1.  The point is nudged toward the farther
            # bracket end by twice the resolution (band / |derivative|), so
            # the next probe lands past the root and both ends close in.
            d_alpha = np.bincount(k_id, weights=t_k / gap_k, minlength=m)
            d_beta = np.bincount(d_id, weights=t_d / gap_d, minlength=m)
            single = p_l == 1.0
            g = np.where(single, beta + 1.0, np.where(err_det_a <= err_det_s, det_a, det_s))
            band = np.minimum(err_det_a, err_det_s) / np.where(single, np.abs(shift), 1.0)
            dg = np.where(single, d_beta, d_alpha * (beta - p_l + 2.0) + d_beta * shift)
            newton = g / dg
            resolution = band / np.abs(dg)
            nudge = np.maximum(2.0 * resolution, 2.0**-52 * lam)
            target = lam - newton
            target = target + np.where(hi_l - target > target - lo_l, nudge, -nudge)
            target = np.minimum(np.maximum(target, lo_l + nudge), hi_l - nudge)
            # a step that does not halve the last one falls back to the
            # midpoint (the safeguard of Numerical Recipes' rtsafe)
            guess = np.where(np.abs(newton) < 0.5 * step, target, np.nan)
            step = np.abs(newton)
            res = np.where(~decided & (resolution < np.inf), resolution, res)
            lo[groups], hi[groups] = lo_l, hi_l
            np.maximum.at(floor, owner, lo_l)
    return lo, hi


_ORACLE_TOL = 1e-13  # of the space's nonzero mass, which bounds the oracle's tail


def exact_worst_case_error(
    alg: StdAlgorithm,
    trunc_x: float | None = None,
    cap_set: int = DEFAULT_SET_CAP,
    coset_cap: int = DEFAULT_COSET_CAP,
) -> OracleResult:
    """Worst-case L2 error of the algorithm over the unit ball, exactly on
    the subspace of frequencies with exponent below trunc_x.

    Frequencies split into cosets of the dual lattice, grouped by one
    lexsort of the window's walk: residues mod the mesh as major keys,
    one column each, and the exponent as minor key, so each coset lists
    its kept members first and its weights descending.  Within a coset the
    error acts as (coefficients scaled by weight**0.5) -> (kept minus
    coset total, discarded unchanged), the matrix diag(w) - outer(kept, w)
    whose largest singular value is the coset's exact worst case.  That
    value is bracketed without forming the matrix (``_top_sq_brackets``:
    certified probes of an inertia count, a few sums each, placed by a
    safeguarded Newton step and run on every coset at once), and the
    global value is the max over cosets.
    ``value`` is the square root of the largest lower end, rounded down;
    the gap up to the largest upper end goes into slack_sq.

    Frequencies beyond trunc_x add a block of columns to each coset's
    matrix.  Its rows on kept frequencies and on its own frequencies are
    disjoint, so its squared norm is at most omega**trunc_x + p * (coset
    mass beyond trunc_x), p the coset's kept count, and by Weyl's
    inequality that bounds what it adds to the squared error.  slack_sq
    therefore also holds omega**trunc_x + p_max * (mass beyond trunc_x),
    p_max the most kept members in one coset: reported, never folded in.
    Both upper values come from ``_series.beyond_window_mass``.
    A window larger than ``cap_set`` or a coset larger than ``coset_cap``
    raises :class:`CapExceeded`.  This is ``_oracle_many`` on one job,
    which runs several algorithms' oracles in one bracket loop.
    """
    if trunc_x is None:
        trunc_x = default_truncation(alg.threshold)
    (result,) = _oracle_many([(alg, trunc_x)], cap_set, coset_cap)
    if isinstance(result, CapExceeded):
        raise result
    return result


def _oracle_many(
    jobs: Sequence[tuple[StdAlgorithm, float]],
    cap_set: int = DEFAULT_SET_CAP,
    coset_cap: int = DEFAULT_COSET_CAP,
) -> list[OracleResult | CapExceeded]:
    """:func:`exact_worst_case_error` of each (algorithm, trunc_x) job over
    one space, with every coset of every job bracketed in one
    ``_top_sq_brackets`` loop, each job's maximum taken apart.

    Jobs with an equal trunc_x share one window (one ``enumerate_below``
    call and one exp of its exponents) and its beyond-window mass, which
    depends on the window alone; the space's whole nonzero mass, which
    that mass reads, is summed once per call.  The grouping, the coset cap, ``kept``,
    ``p_max`` and the slack are per job, so every result is that of a
    call on its job alone.  A job whose window exceeds ``cap_set`` or
    whose largest coset exceeds ``coset_cap`` gets that
    :class:`CapExceeded` in place of its result; a trunc_x at or below a
    job's threshold raises before any window is walked.
    """
    for alg, trunc_x in jobs:
        if alg.params != jobs[0][0].params:
            raise InvalidParameterError("term_undefined", "oracle jobs belong to different spaces")
        if not trunc_x > alg.threshold:
            raise InvalidParameterError(
                "term_undefined",
                f"truncation budget {trunc_x} must exceed the kept threshold {alg.threshold}",
            )
    results: list[OracleResult | CapExceeded | None] = [None] * len(jobs)
    windows: dict[float, tuple[IndexSet, np.ndarray, list[int]] | CapExceeded] = {}
    masses: dict[float, tuple[float, float]] = {}  # omega**trunc_x and the mass beyond
    total = None  # the nonzero mass, once some job reaches the bracket stage
    batch = []  # (job, trunc_x, weights, kept, ids, largest coset) to bracket
    for i, (alg, trunc_x) in enumerate(jobs):
        params = alg.params
        if trunc_x not in windows:
            try:
                window = enumerate_below(params, trunc_x, cap=cap_set)
                reach = np.abs(window.walk_members).max(axis=0, initial=0).tolist()
                windows[trunc_x] = window, np.exp(window.walk_exponents * -params.log_inv_omega), reach
            except CapExceeded as exc:
                windows[trunc_x] = exc
        if isinstance(windows[trunc_x], CapExceeded):
            results[i] = windows[trunc_x]
            continue
        window, walk_weights, reach = windows[trunc_x]

        # one key per residue column: a mixed-radix key can overflow int64.
        # A side m >= 2R + 1, R the window's largest |h_j|, maps [-R, R] one
        # to one, non-negatives first, as 2R + 1 does: the same cosets in the
        # same order, with every side within int64.
        sides = [min(m, 2 * r + 1) for m, r in zip(alg.grid.mesh, reach)]
        residues = window.walk_members % np.array(sides, dtype=np.int64)
        order = np.lexsort((window.walk_exponents, *residues.T[::-1]))
        residues = residues[order]
        exponents = window.walk_exponents[order]
        ids = np.concatenate(([0], np.cumsum(np.any(residues[1:] != residues[:-1], axis=1))))
        largest = int(np.bincount(ids).max())
        if largest > coset_cap:
            results[i] = CapExceeded("coset size", coset_cap, needed=largest)
            continue
        if trunc_x not in masses:
            if total is None:
                total = nonzero_mass(params.omega, a_values(params), b_values(params), _ORACLE_TOL).hi
            # math.fsum is exactly rounded, so walk order sums like any other
            masses[trunc_x] = beyond_window_mass(
                params.omega, a_values(params), b_values(params), trunc_x,
                walk_weights[window.walk_exponents > 0.0], total,
            )
        batch.append((i, trunc_x, walk_weights[order], exponents < alg.threshold, ids, largest))

    if batch:
        _, _, weights, kept, ids, _ = zip(*batch)
        counts = [int(g[-1]) + 1 for g in ids]
        starts = np.cumsum([0, *counts])
        lo, hi = _top_sq_brackets(
            np.concatenate(weights),
            np.concatenate(kept),
            np.concatenate([g + start for g, start in zip(ids, starts)]),
            int(starts[-1]),
            np.repeat(np.arange(len(batch)), counts),  # each job's own maximum
        )
        for (i, trunc_x, _, kept, ids, largest), a, b in zip(batch, starts, starts[1:]):
            value = math.nextafter(math.sqrt(float(lo[a:b].max())), 0.0)
            top = float(hi[a:b].max())
            gap = top - value * value + 4.0 * _U * top
            p_max = int(np.bincount(ids, weights=kept).max())
            sup_beyond, beyond = masses[trunc_x]
            slack_sq = (gap + sup_beyond + p_max * beyond) * (1.0 + 4.0 * _U)
            results[i] = OracleResult(
                value=value,
                slack_sq=math.nextafter(slack_sq, math.inf),
                coset_count=int(b - a),
                largest_coset=largest,
            )
    return results
