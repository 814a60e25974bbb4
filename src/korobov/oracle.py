"""Exact worst-case error of a grid-sampling algorithm, certified per coset.

Frequencies split into cosets of the grid's dual lattice, and the error
acts on each coset apart.  With coefficients scaled by weight**0.5, a
coset's error is the matrix M = D - k w^T, w = sqrt(weights), D = diag(w)
and k the 0/1 kept mask: each kept coefficient becomes minus the coset
total, each discarded one stays.  Its largest singular value is the
coset's exact worst case; the max over cosets is the global one.

Inertia count.  With p = |kept|, M^T M = D**2 + V C V^T, V = [D k, w]
and C = [[0, -1], [-1, p]].  Haynsworth inertia additivity on
[[D**2 - lam, V], [V^T, -C^-1]] gives, for lam off the poles w_i**2,

    #{eig(M^T M) > lam} = #{i : w_i**2 > lam} + pos(S) - 1,
    S = [[p - alpha, 1 - alpha], [1 - alpha, -alpha - beta]],

with alpha and beta the sums of w_i**2 / (w_i**2 - lam) over the kept
and the discarded members, so det S = alpha beta - (p - 2) alpha - p beta - 1.
A probe at lam costs those sums: no matrix is formed.

Weyl slack.  Only the window, the frequencies with exponent below
trunc_x, is computed.  Those beyond add a block of columns to each
coset's matrix, whose rows on kept frequencies and on its own are
disjoint, so its squared norm is at most omega**trunc_x + p * (coset
mass beyond trunc_x); by Weyl's inequality that bounds what it adds to
the squared error.  slack_sq holds that bound at p_max, the most kept
members in one coset (both masses from ``_series.beyond_window_mass``),
plus the bracket gap: reported, never folded in.

Each window, one walk's rows below its budget, is put in exponent order
once; a job folds ``grid.coset_keys`` into one int64 key per row and sorts
it stably, so each coset lists its kept members first and its weights
descending.  Of the algorithm it reads ``params``, ``threshold`` and
``grid.coset_keys`` only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ._series import beyond_window_mass, nonzero_mass, trace_ceilings
from .errors import CapExceeded, InvalidParameterError
from .index_set import DEFAULT_SET_CAP, IndexSet, _nested
from .params import _U, a_values, b_values

__all__ = ["OracleResult", "DEFAULT_COSET_CAP", "default_truncation", "exact_worst_case_error"]

DEFAULT_COSET_CAP = 2000


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
    exponent is); sq holds the weights w_i**2 of the module docstring's
    matrix M.  A probe of the inertia count takes alpha, beta and det S
    for every live group at once with the absolute rounding bound
    (n + 4) * u * sum|terms|, and the two sums behind the slope of det S;
    it moves lo or hi only when the signs of det S and S_11 are certified.

    A safeguarded Newton step on det S chooses where the next probe
    goes, and nothing else: it is nudged past the root by twice the
    resolution (the rounding band over the slope) so that both ends
    close in, and it is taken when it lands strictly inside (lo, hi) and
    is under half the previous step.  Otherwise the probe goes to the
    geometric midpoint, or after an undecided probe a quarter or three
    quarters of the way.  A group stops at a few-ulp bracket, at three
    undecided probes in a row, or once its bracket is within
    ``_SETTLED`` resolutions.

    A lone kept entry (sigma**2 = 0) and a group without kept entries
    (diagonal, at its largest weight) are exact: lo = hi is set before any
    per-group state is allocated.  For the others lo starts at the largest
    row or column norm**2 (a Rayleigh quotient), hi at 2 * ||M||_F**2.
    ``owner[g]`` is the job of group g (``None``: one job), and
    each job's maximum is taken apart: a group whose hi falls below the
    largest lo of its job cannot hold that maximum and stops early with a
    valid but wider bracket.  Every group's probes, and so its lo and hi,
    are those of a call on its job alone.
    """
    size = np.bincount(ids, minlength=n_groups)
    p = np.bincount(ids, weights=kept, minlength=n_groups)
    out_lo = np.where(p == 0, sq[np.cumsum(size) - size], 0.0)
    out_hi = out_lo.copy()
    owner = np.zeros(n_groups, dtype=np.int64) if owner is None else np.asarray(owner)
    floor = np.zeros(int(owner.max(initial=-1)) + 1)  # per job, the largest lo so far
    np.maximum.at(floor, owner, out_lo)
    opened = (size > 1) & (p > 0)
    entry = opened[ids]
    sq, kept, ids = sq[entry], kept[entry], (np.cumsum(opened) - 1)[ids[entry]]
    size, p, owner, n_groups = size[opened], p[opened], owner[opened], int(opened.sum())

    start = np.cumsum(size) - size
    n = size.astype(float)
    kept_sq = np.where(kept, sq, 0.0)
    kept_total = np.bincount(ids, weights=kept_sq, minlength=n_groups)
    disc_total = np.bincount(ids, weights=sq - kept_sq, minlength=n_groups)
    n_kept = p.astype(np.int64)
    kept_max, kept_min = sq[start], sq[start + n_kept - 1]
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
            kept_row,
        ]
    )
    # ||M||_F**2 = (p - 1) * kept total + (p + 1) * discarded total, with a
    # rounding error far below the factor 2.
    hi = 2.0 * ((p - 1.0) * kept_total + (p + 1.0) * disc_total)

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
    out_lo[opened], out_hi[opened] = lo, hi
    return out_lo, out_hi


_ORACLE_TOL = 1e-13  # of the space's nonzero mass, which bounds the oracle's tail


def exact_worst_case_error(
    alg,
    trunc_x: float | None = None,
    cap_set: int = DEFAULT_SET_CAP,
    coset_cap: int = DEFAULT_COSET_CAP,
) -> OracleResult:
    """Worst-case L2 error over the unit ball of a sampling algorithm
    (``sampling.StdAlgorithm``), exact on the window below trunc_x.

    ``value`` is the square root of the largest lower end over cosets,
    rounded down; the gap up to the largest upper end and the Weyl bound
    on the frequencies beyond trunc_x go into slack_sq.  A window larger
    than ``cap_set`` or a coset larger than ``coset_cap`` raises
    :class:`CapExceeded`.  This is ``_oracle_many`` on one job.
    """
    if trunc_x is None:
        trunc_x = default_truncation(alg.threshold)
    (result,) = _oracle_many([(alg, trunc_x)], cap_set, coset_cap)
    if isinstance(result, CapExceeded):
        raise result
    return result


def _coset_key(digits: np.ndarray) -> np.ndarray:
    """An int64 per row of ``digits`` (int64[n, s], >= 0) that sorts as a
    lexsort of the digits, column 0 major: mixed radix, column max + 1.  A
    key the next radix could carry past 2**62 is first dense-ranked."""
    key, top = np.zeros(len(digits), dtype=np.int64), 0  # top bounds key
    for column in digits.T:
        radix = int(column.max(initial=0)) + 1
        if (top + 1) * radix > 2**62:
            key = np.unique(key, return_inverse=True)[1].astype(np.int64)
            top = int(key.max(initial=0))
        key, top = key * radix + column, (top + 1) * radix - 1
    return key


def _oracle_many(
    jobs: Sequence[tuple[object, float]],
    cap_set: int = DEFAULT_SET_CAP,
    coset_cap: int = DEFAULT_COSET_CAP,
    windows: Mapping[float, IndexSet | CapExceeded] | None = None,
) -> list[OracleResult | CapExceeded]:
    """:func:`exact_worst_case_error` of each (algorithm, trunc_x) job over
    one space, every coset of every job bracketed in one
    ``_top_sq_brackets`` loop, each job's maximum taken apart.

    Windows are ``index_set._nested``'s, off one walk, unless handed in.
    Jobs with an equal trunc_x share one window, its order, weights and
    beyond-window mass; the nonzero mass and trace ceilings are formed once.
    The grouping, the coset cap, ``kept``, ``p_max`` and the slack are per
    job, so every result is that of a call on its job alone: a window over
    ``cap_set`` or a largest coset over ``coset_cap`` puts that
    :class:`CapExceeded` in place of the job's result.  A trunc_x at or
    below a job's threshold raises before any window is walked.
    """
    for alg, trunc_x in jobs:
        if alg.params != jobs[0][0].params:
            raise InvalidParameterError("term_undefined", "oracle jobs belong to different spaces")
        if not trunc_x > alg.threshold:
            raise InvalidParameterError(
                "term_undefined",
                f"truncation budget {trunc_x} must exceed the kept threshold {alg.threshold}",
            )
    if windows is None and jobs:
        windows = _nested(jobs[0][0].params, [trunc_x for _, trunc_x in jobs], cap_set)
    results: list[OracleResult | CapExceeded | None] = [None] * len(jobs)
    shared = {}  # per trunc_x: exponents, members, weights by exponent, ties in walk order
    masses: dict[float, tuple[float, float]] = {}  # omega**trunc_x and the mass beyond
    total = None  # the nonzero mass, once some job reaches the bracket stage
    batch = []  # (job, trunc_x, weights, kept, ids, largest coset) to bracket
    for i, (alg, trunc_x) in enumerate(jobs):
        params, window = alg.params, windows[trunc_x]
        if isinstance(window, CapExceeded):
            results[i] = window
            continue
        if trunc_x not in shared:
            by_exponent = np.argsort(window.walk_exponents, kind="stable")
            e = window.walk_exponents[by_exponent]
            shared[trunc_x] = e, window.walk_members[by_exponent], np.exp(e * -params.log_inv_omega)
        exponents, members, weights = shared[trunc_x]
        key = _coset_key(alg.grid.coset_keys(members))
        order = np.argsort(key, kind="stable")  # each coset's rows stay by exponent
        key = key[order]
        ids = np.concatenate(([0], np.cumsum(key[1:] != key[:-1])))
        largest = int(np.bincount(ids).max())
        if largest > coset_cap:
            results[i] = CapExceeded("coset size", coset_cap, needed=largest)
            continue
        if trunc_x not in masses:
            if total is None:
                av, bv = a_values(params), b_values(params)
                total = nonzero_mass(params.omega, av, bv, _ORACLE_TOL).hi
                ceilings = trace_ceilings(params.omega, av, bv)
            # math.fsum is exactly rounded, so any order sums alike
            masses[trunc_x] = beyond_window_mass(
                params.omega, params.s, trunc_x, weights[exponents > 0.0], total, ceilings
            )
        batch.append((i, trunc_x, weights[order], exponents[order] < alg.threshold, ids, largest))

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
