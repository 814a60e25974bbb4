"""Pieces shared by the three workloads: the task record, the failure
kinds, seeded parameter draws and the independent reference
computations the output checks compare against.

The references avoid the package's own recursions: exponents are summed
left to right in coordinate order (the order of the conftest brute
force), and counts come from pruned numpy partial sums over a generous
box.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import korobov
import korobov.cli
from korobov.params import ExplicitFamily, KorobovParams, validate


class CheckFailed(Exception):
    """A task's output broke an invariant of the mathematics."""


class KnownDefect(CheckFailed):
    """Count, enumeration and membership disagree at a budget that sits
    exactly on a lattice exponent (ROADMAP item 1).  Counted as a failed
    task like any other failure; it is the one failure the benchmark
    expects at the seed commit."""


@dataclass
class Task:
    """One closed-loop request: ``run`` is timed, ``check`` is not.

    ``check`` receives what ``run`` returned and raises ``CheckFailed``
    when the output is wrong.
    """

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def explicit_params(omega: float, a, b) -> KorobovParams:
    a = tuple(float(v) for v in a)
    b = tuple(float(v) for v in b)
    return validate(
        KorobovParams(
            omega=float(omega),
            a=ExplicitFamily(a, "repeat"),
            b=ExplicitFamily(b, "repeat"),
            s=len(a),
        )
    )


def explicit_config(params: KorobovParams) -> dict:
    """CLI config object for params built by ``explicit_params``."""
    return {
        "omega": params.omega,
        "s": params.s,
        "a": {"family": "explicit", "values": list(params.a.values), "tail": "repeat"},
        "b": {"family": "explicit", "values": list(params.b.values), "tail": "repeat"},
    }


def draw_weights(rng: np.random.Generator, s: int, a_range, b_range):
    """Real-valued nondecreasing a (all >= 1) and real b (all >= 1)."""
    a = np.sort(rng.uniform(*a_range, size=s))
    b = rng.uniform(*b_range, size=s)
    return [round(float(v), 6) for v in a], [round(float(v), 6) for v in b]


def exponent(av, bv, h) -> float:
    """E(h) summed left to right over nonzero coordinates."""
    total = 0.0
    for hj, a, b in zip(h, av, bv):
        if hj:
            total += a * float(abs(hj)) ** b
    return total


def weights_of(params: KorobovParams):
    s = params.s
    return (
        tuple(params.a_term(j) for j in range(1, s + 1)),
        tuple(params.b_term(j) for j in range(1, s + 1)),
    )


def _radius(a: float, b: float, x: float) -> int:
    return int(math.ceil((x / a) ** (1.0 / b))) + 1 if x > 0 else 0


def brute_force_count(av, bv, x: float, chunk: int = 1 << 16) -> int:
    """|{h : E(h) < x}| from pruned partial sums over a generous box.

    Partial sums are extended one coordinate at a time and filtered; the
    expansion runs in chunks so memory stays near the final count.
    """
    if x <= 0:
        return 0
    sums = np.zeros(1)
    last = len(av) - 1
    for j, (a, b) in enumerate(zip(av, bv)):
        r = _radius(a, b, x)
        # Python's pow, as in exponent(): numpy's vectorised pow may round
        # differently, which decides the outcome at on-lattice budgets
        terms = np.array([a * float(abs(h)) ** b if h else 0.0 for h in range(-r, r + 1)])
        kept = []
        total = 0
        for start in range(0, sums.size, chunk):
            block = (sums[start : start + chunk, None] + terms[None, :]).ravel()
            block = block[block < x]
            if j == last:
                total += block.size
            else:
                kept.append(block)
        if j == last:
            return total
        sums = np.concatenate(kept) if kept else np.zeros(0)
    return 0


def brute_force_members(av, bv, x: float) -> set:
    """Every h with E(h) < x, from the same pruned box walk (small x only)."""
    members = [()]
    for a, b in zip(av, bv):
        r = _radius(a, b, x)
        nxt = []
        for prefix in members:
            base = exponent(av, bv, prefix) if prefix else 0.0
            for h in range(-r, r + 1):
                e = base + (a * float(abs(h)) ** b if h else 0.0)
                if e < x:
                    nxt.append(prefix + (h,))
        members = nxt
    return set(members)


def zeta(k: float) -> float:
    """Riemann zeta at k > 1 by Euler-Maclaurin, accurate to ~1e-15."""
    n = 20
    head = math.fsum(j ** -k for j in range(1, n))
    tail = n ** (1.0 - k) / (k - 1.0) + 0.5 * n**-k
    # Bernoulli corrections B2/2!, B4/4!, B6/6! with the rising factorials of k.
    tail += k * n ** (-k - 1.0) / 12.0
    tail -= k * (k + 1) * (k + 2) * n ** (-k - 3.0) / 720.0
    tail += k * (k + 1) * (k + 2) * (k + 3) * (k + 4) * n ** (-k - 5.0) / 30240.0
    return head + tail


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def geometric_ladder(lo: float, hi: float, count: int):
    """``count`` sizes spaced geometrically over [lo, hi].

    Sizes are fixed per stratum rather than drawn: the seed picks the
    instances (weights, meshes, functions, budgets) that realise them, so
    a pass costs about the same for every seed.
    """
    if count == 1:
        return [lo]
    ratio = (hi / lo) ** (1.0 / (count - 1))
    return [lo * ratio**i for i in range(count)]


def budget_for_count(params, target: int, lo: float, rel_tol: float = 1e-2) -> float:
    """A budget whose count is within ``rel_tol`` of ``target``.

    The count grows like a power of the budget, so the search brackets
    the crossing in small steps and then interpolates log(count) against
    log(budget).  The returned budget is an interpolated point, not a
    lattice exponent.
    """
    count = korobov.count_below
    hi = max(2.0 * lo, 1.0)
    c_lo, c_hi = count(params, lo), count(params, hi)
    while c_hi < target:
        lo, c_lo = hi, c_hi
        hi *= 1.15
        c_hi = count(params, hi)
    x = hi
    for _ in range(60):
        if c_lo > 0 and c_hi > c_lo:
            t = math.log(target / c_lo) / math.log(c_hi / c_lo)
            t = min(max(t, 0.1), 0.9)  # keep shrinking the bracket
            x = lo * (hi / lo) ** t
        else:
            x = 0.5 * (lo + hi)
        c = count(params, x)
        if abs(c - target) <= rel_tol * target or hi - lo < 1e-9 * hi:
            break
        if c < target:
            lo, c_lo = x, c
        else:
            hi, c_hi = x, c
    return x


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = korobov.cli.main(argv)
    return code, buf.getvalue()
