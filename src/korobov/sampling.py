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
matrix by bisection on an inertia count that costs two sums per probe,
run on all cosets at once, so no matrix is formed.  The bisection gap
and the neglected tail are reported as explicit slack, never absorbed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
import numpy as np

from ._series import weight_sum_upper
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


_U = 2.0**-53  # unit roundoff of float64
# The bisection stops once hi <= lo * (1 + _BRACKET_RTOL), a few ulps.
_BRACKET_RTOL = 2.0**-50
# Where a probe lands between lo and hi: the geometric midpoint (entry
# 0), then, after an undecided probe, the points a quarter and three
# quarters of the way; once they are used up the group keeps its
# certified bracket.
_RETRY_AT = np.array([0.5, 0.25, 0.75])
_MAX_PROBES = 200


def _top_sq_brackets(
    sq: np.ndarray, kept: np.ndarray, ids: np.ndarray, n_groups: int
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
    the absolute rounding bound (n + 4) * u * sum|terms|; it moves lo or hi
    only when the signs of det S and S_11 are certified, and an undecided
    probe is retried at two other points before the group stops.

    lo starts at the largest row or column norm**2 (a Rayleigh quotient),
    hi at 2 * ||M||_F**2; a group without kept entries is diagonal and
    exact.  A group whose hi falls below the largest lo cannot hold the
    maximum and stops early with a valid but wider bracket.
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
    # apart; k_id and d_id index the live groups.
    groups, p_l, scale = np.arange(n_groups), p, (n + 4.0) * _U
    lo_l, hi_l, tries = lo.copy(), hi.copy(), np.zeros(n_groups, dtype=np.int64)
    k_sq, k_id = sq[kept], ids[kept]
    d_sq, d_id = sq[~kept], ids[~kept]
    floor = float(lo.max(initial=0.0))

    for _ in range(_MAX_PROBES):
        live = (hi_l > lo_l * (1.0 + _BRACKET_RTOL)) & (hi_l >= floor) & (tries < _RETRY_AT.size)
        if not live.all():
            local = np.cumsum(live) - 1
            keep_k, keep_d = live[k_id], live[d_id]
            k_sq, k_id = k_sq[keep_k], local[k_id[keep_k]]
            d_sq, d_id = d_sq[keep_d], local[d_id[keep_d]]
            groups, p_l, scale = groups[live], p_l[live], scale[live]
            lo_l, hi_l, tries = lo_l[live], hi_l[live], tries[live]
        if groups.size == 0:
            break
        m = groups.size
        mid = np.where(lo_l > 0.0, np.sqrt(lo_l) * np.sqrt(hi_l), 0.5 * hi_l)
        lam = np.where(tries == 0, mid, lo_l + _RETRY_AT[tries] * (hi_l - lo_l))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lam_k = lam[k_id]
            gap_k = k_sq - lam_k
            t_k = k_sq / gap_k
            r_k = lam_k / gap_k  # t_k - 1, without its cancellation
            t_d = d_sq / (d_sq - lam[d_id])
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
        lo[groups], hi[groups] = lo_l, hi_l
        floor = max(floor, float(lo_l.max()))
    return lo, hi


def _beyond_window_mass(
    params: KorobovParams, x: float, window_weights: np.ndarray, tol: float
) -> tuple[float, float]:
    """Certified upper values of omega**x and of the weight mass
    sum_{E(h) >= x} omega**E(h) beyond the window.

    The mass is the smaller of two valid bounds.  The first is the
    product-form total minus the window, both sides widened by their
    rounding: the window is summed exactly by ``math.fsum``, and each
    window weight exp(E(h) log(omega)) carries a relative error below
    ((s + 4) x log(1/omega) + 4) u, u = 2**-53, from the s-term exponent
    sum, the product and exp.  It cancels in deep windows.  The second is
    the trace bound

        omega**(theta x) * prod_j (1 + 2 sum_{h>=1} omega**((1-theta) a_j h**b_j)),

    valid for every theta in (0, 1) since omega**E <= omega**(theta x) *
    omega**((1-theta) E) once E >= x, taken at the best theta = 1 - 2**-k,
    k = 1..10.  Each one-dimensional series is bounded in closed form by
    min(1/expm1(c), Gamma(1 + 1/b) c**(-1/b)), c = (1-theta) a_j log(1/omega):
    h**b >= h gives the geometric series, and the terms decrease, so the
    sum is at most the integral of exp(-c t**b) over t >= 0.

    The exponents of omega**x and of the trace bound sum s + 1 terms of
    magnitude below 745 (beyond that exp underflows, and rounding up
    covers the rest), each with a few roundings, and x stands for float
    exponents that are off by (s + 2) u x: their relative error stays
    below 2048 (s + 4) u.
    """
    av, bv = a_values(params), b_values(params)
    log_inv = params.log_inv_omega
    s = params.s
    total = 1.0
    for a, b in zip(av, bv):
        total *= 1.0 + 2.0 * weight_sum_upper(params.omega, a, b, tol=tol / (4.0 * s))
    total *= 1.0 + (2.0 * s + 2.0) * _U
    window = math.fsum(window_weights.tolist())
    window *= 1.0 - ((s + 4.0) * x * log_inv + 6.0) * _U
    by_total = total - window

    best = math.inf
    for k in range(1, 11):
        theta = 1.0 - 2.0**-k
        log_bound = -theta * x * log_inv
        for a, b in zip(av, bv):
            c = (1.0 - theta) * a * log_inv
            series = min(1.0 / math.expm1(c), math.gamma(1.0 + 1.0 / b) * c ** (-1.0 / b))
            log_bound += math.log1p(2.0 * series)
        best = min(best, log_bound)
    up = 1.0 + 2048.0 * (s + 4.0) * _U
    by_trace = math.exp(best) * up
    sup = math.nextafter(math.exp(-x * log_inv) * up, math.inf)
    return sup, math.nextafter(max(min(by_total, by_trace), 0.0), math.inf)


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
    coset total, discarded unchanged), the matrix diag(w) - outer(kept, w)
    whose largest singular value is the coset's exact worst case.  That
    value is bracketed without forming the matrix (``_top_sq_brackets``:
    bisection on an inertia count that costs two sums per probe, run on
    every coset at once), and the global value is the max over cosets.
    ``value`` is the square root of the largest lower end, rounded down;
    the gap up to the largest upper end goes into slack_sq.

    Frequencies beyond trunc_x add a block of columns to each coset's
    matrix.  Its rows on kept frequencies and on its own frequencies are
    disjoint, so its squared norm is at most omega**trunc_x + p * (coset
    mass beyond trunc_x), p the coset's kept count, and by Weyl's
    inequality that bounds what it adds to the squared error.  slack_sq
    therefore also holds omega**trunc_x + p_max * (mass beyond trunc_x),
    p_max the most kept members in one coset: reported, never folded in.
    A coset larger than ``coset_cap`` raises :class:`CapExceeded`.
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
    log_w = -params.log_inv_omega

    # Group the window by coset: one stable sort on the residues mod the
    # mesh keeps exponents ascending, so weights descend, within a coset.
    residues = np.array(window.members, dtype=np.int64).reshape(window.count, params.s)
    residues %= np.array(alg.grid.mesh, dtype=np.int64)
    order = np.lexsort(residues.T[::-1])
    residues = residues[order]
    exponents = np.array(window.member_exponents)[order]
    ids = np.concatenate(([0], np.cumsum(np.any(residues[1:] != residues[:-1], axis=1))))
    coset_count = int(ids[-1]) + 1
    sizes = np.bincount(ids)
    largest = int(sizes.max())
    if largest > coset_cap:
        raise CapExceeded("coset size", coset_cap, needed=largest)

    weights = np.exp(exponents * log_w)
    kept = exponents < alg.threshold
    lo, hi = _top_sq_brackets(weights, kept, ids, coset_count)
    value = math.nextafter(math.sqrt(float(lo.max())), 0.0)
    top = float(hi.max())
    gap = top - value * value + 4.0 * _U * top

    p_max = int(np.bincount(ids, weights=kept).max())
    sup_beyond, beyond = _beyond_window_mass(params, trunc_x, weights, tol)
    slack_sq = math.nextafter((gap + sup_beyond + p_max * beyond) * (1.0 + 4.0 * _U), math.inf)
    return OracleResult(
        value=value,
        slack_sq=slack_sq,
        coset_count=coset_count,
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
