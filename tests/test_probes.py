"""Property test of the oracle's probe placement.

``_top_sq_brackets`` places its probes by a safeguarded Newton step on
det S and still moves a bracket end only on the certified sign test.
Here it is run on cosets chosen at the places a probe can go wrong:
p = 1 with a dominant kept weight (the top eigenvalue below the kept
pole), p = 2 with lo starting at the kept pole, every member kept, exact
ties, weights down to 1e-300, and batches holding identical cosets (r and
-r have equal spectra).  Its brackets must contain a 50-digit
eigenvalue (size <= 8) or a dense SVD (larger sizes, with the SVD's
size * u slack), overlap the plain bisection's brackets kept below as
the reference, and be narrow on the group holding the maximum.
"""

import math

import hypothesis.strategies as st
import mpmath as mp
import numpy as np
from hypothesis import HealthCheck, given, settings

from korobov.sampling import _top_sq_brackets

U = 2.0**-53


# ---------------------------------------------------------------------------
# Reference: the plain bisection the Newton placement replaced.

# The bisection stops once hi <= lo * (1 + BRACKET_RTOL), a few ulps.
BRACKET_RTOL = 2.0**-50
# Where a probe lands between lo and hi: the geometric midpoint (entry
# 0), then, after an undecided probe, the points a quarter and three
# quarters of the way; once they are used up the group keeps its
# certified bracket.
RETRY_AT = np.array([0.5, 0.25, 0.75])
MAX_PROBES = 200


def bisection_brackets(
    sq: np.ndarray, kept: np.ndarray, ids: np.ndarray, n_groups: int
) -> tuple[np.ndarray, np.ndarray]:
    """Brackets by plain bisection: the geometric midpoint of every live
    group, retried a quarter and three quarters of the way after an
    undecided probe, with the same certified sign test as the package."""
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
    down = 1.0 - 4.0 * U
    kept_row = (kept_total - kept_min) + disc_total - (n + 2.0) * U * (kept_total + disc_total)
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
    groups, p_l, scale = np.arange(n_groups), p, (n + 4.0) * U
    lo_l, hi_l, tries = lo.copy(), hi.copy(), np.zeros(n_groups, dtype=np.int64)
    k_sq, k_id = sq[kept], ids[kept]
    d_sq, d_id = sq[~kept], ids[~kept]
    floor = float(lo.max(initial=0.0))

    for _ in range(MAX_PROBES):
        live = (hi_l > lo_l * (1.0 + BRACKET_RTOL)) & (hi_l >= floor) & (tries < RETRY_AT.size)
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
        lam = np.where(tries == 0, mid, lo_l + RETRY_AT[tries] * (hi_l - lo_l))
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
                + 6.0 * U * (np.abs(ab) + np.abs(pa) + np.abs(pb) + 1.0)
            ) * (1.0 + 16.0 * U)
            sb, ps, sq_p = shift * beta, (p_l - 2.0) * shift, (p_l - 1.0) ** 2
            det_s = sb - ps - sq_p
            err_det_s = (
                np.abs(beta - p_l + 2.0) * err_s
                + np.abs(shift) * err_b
                + err_s * err_b
                + 6.0 * U * (np.abs(sb) + np.abs(ps) + sq_p)
            ) * (1.0 + 16.0 * U)
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


# ---------------------------------------------------------------------------
# Cosets at the edges of the probe placement.

KINDS = ("dominant_single", "pole_pair", "all_kept", "any")


@st.composite
def cosets(draw):
    """(sq, kept) of one coset: kept entries first, each part descending."""
    kind = draw(st.sampled_from(KINDS))
    # mostly small and medium cosets; one in eight at the coset sizes
    # where all-kept groups reach p = 400
    band = draw(st.integers(0, 7))
    if band < 4:
        size = draw(st.integers(1, 8))
    else:
        size = draw(st.integers(9, 60) if band < 7 else st.sampled_from([200, 400]))
    if kind in ("dominant_single", "pole_pair"):
        size = max(size, 2 if kind == "dominant_single" else 3)
    p = {"dominant_single": 1, "pole_pair": 2, "all_kept": size}.get(kind)
    if p is None:
        p = draw(st.integers(0, size))
    depth = draw(st.sampled_from([30.0, 60.0, 990.0]))
    offset = draw(st.floats(0.0, 990.0 - depth))  # weights down to 2**-990 ~ 1e-298
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    exponents = np.sort(rng.uniform(0.0, depth, size))
    if kind in ("dominant_single", "pole_pair"):
        # the leading kept weight outweighs all the others together more
        # than twice (also after rounding), so for p = 1 the top
        # eigenvalue lies below its pole and for p = 2 lo starts at it
        exponents[p - 1 :] += math.log2(size) + 2.0
        exponents[0] = 0.0
    if draw(st.booleans()):
        exponents = np.round(exponents)  # exact ties
    sq = np.exp2(-(exponents + offset))
    kept = np.arange(size) < p
    return sq, kept


def reference_top_sq(sq, kept):
    """A 50-digit eigenvalue of M^T M for size <= 8, else a dense SVD
    with its size * u slack: returns (value, slack)."""
    size = sq.size
    if size <= 8:
        p = int(kept.sum())
        with mp.workdps(50):
            # M^T M = D**2 + (p - k_i - k_j) w_i w_j, with w_i**2 = sq_i exactly
            w = [mp.sqrt(mp.mpf(float(v))) for v in sq]
            gram = mp.matrix(size, size)
            for i in range(size):
                for j in range(size):
                    gram[i, j] = (p - int(kept[i]) - int(kept[j])) * w[i] * w[j]
                gram[i, i] += w[i] ** 2
            return max(mp.eigsy(gram, eigvals_only=True)), mp.mpf(0)
    w = np.sqrt(sq)
    matrix = np.diag(w) - np.outer(kept.astype(float), w)
    top = float(np.linalg.svd(matrix, compute_uv=False)[0]) ** 2
    return mp.mpf(top), mp.mpf(size * U * top)


@settings(derandomize=True, max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(cosets(), min_size=1, max_size=4), st.lists(st.integers(0, 3), max_size=2))
def test_newton_probes_hold_the_certified_bracket(groups, mirrors):
    # mirror-identical cosets: copies of drawn ones, batched alongside
    groups = groups + [groups[i % len(groups)] for i in mirrors]
    sq = np.concatenate([g[0] for g in groups])
    kept = np.concatenate([g[1] for g in groups])
    ids = np.concatenate([np.full(g[0].size, i) for i, g in enumerate(groups)])
    lo, hi = _top_sq_brackets(sq, kept, ids, len(groups))
    ref_lo, ref_hi = bisection_brackets(sq, kept, ids, len(groups))

    refs = [reference_top_sq(*g) for g in groups]
    with mp.workdps(50):
        tiny = mp.mpf(10) ** -40
        for g, (value, slack) in enumerate(refs):
            assert mp.mpf(float(lo[g])) * (1 - tiny) - slack <= value, g
            assert value <= mp.mpf(float(hi[g])) * (1 + tiny) + slack, g
    # both certify the same eigenvalue, so the brackets meet
    assert np.all(lo <= ref_hi) and np.all(ref_lo <= hi)
    top = max(range(len(groups)), key=lambda g: refs[g][0])
    assert hi[top] - lo[top] <= 1e-12 * hi[top]
