"""Workload ``count``: exact lattice arithmetic at s = 6..12.

Tasks run the ``complexity`` subcommand, ``count_below``,
``enumerate_below`` with membership queries, ``truncate_to_accuracy``,
the spectrum/complexity duality with the trace bound, ``analyze`` on
power families and ``kernel_eval`` at omega = 0.9, all on real-valued
weights (integer weights hit the counting memo and take under 1 ms).
This is pure-Python recursion, heap and series code.

A share of the budgets sits exactly on a lattice exponent, taken from
``top_eigenvalues``: users land there whenever eps**2 equals an
eigenvalue.  Count, enumeration and membership disagree on part of them
at the seed commit (ROADMAP item 1); those tasks fail with
``KnownDefect`` and are not filtered out.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import korobov
import korobov.space
from common import (
    CheckFailed,
    KnownDefect,
    Task,
    brute_force_count,
    brute_force_members,
    budget_for_count,
    draw_weights,
    explicit_config,
    explicit_params,
    exponent,
    geometric_ladder,
    require,
    run_cli,
    weights_of,
    zeta,
)
from reference import interpreter as REFERENCE

BRUTE_LIMIT = 300_000  # largest count checked against the brute force


class Spaces:
    """Weight draws for the pool.

    Stratum k's space is drawn from a fixed stream, then the seed moves
    omega and every weight by up to 2%.  Each seed thus gets different
    real weights, and so different lattice exponents and boundary cases,
    while the counting recursion costs about the same: its cost depends
    strongly on the weights' shape.
    """

    def __init__(self, rng):
        self.rng = rng
        self.drawn = 0

    def __call__(self, s):
        base = np.random.default_rng([20240811, self.drawn])
        self.drawn += 1
        a, b = draw_weights(base, s, (1.0, 3.0), (1.0, 2.0))
        omega = float(base.uniform(0.3, 0.8)) * (1.0 + 0.02 * self.rng.uniform(-1.0, 1.0))
        a = sorted(round(v * (1.0 + 0.02 * self.rng.uniform()), 6) for v in a)
        b = [round(v * (1.0 + 0.02 * self.rng.uniform()), 6) for v in b]
        return explicit_params(omega, a, b)


def _eps_of(params, x: float) -> float:
    """Accuracy whose budget log(eps**-2)/log(1/omega) is x."""
    return math.exp(-0.5 * x * params.log_inv_omega)


def _budget_of(params, eps: float) -> float:
    return 2.0 * math.log(1.0 / eps) / params.log_inv_omega


# ---------------------------------------------------------------------------


def _complexity_task(rng, spaces, workdir, index, target):
    top = 8 + index % 5
    s_list = [top - 2, top - 1, top]
    params = spaces(s_list[-1])
    x = budget_for_count(params, int(target), lo=1e-3)
    eps = [_eps_of(params, x * f) for f in (1.0, 0.8, 0.6)]
    config = explicit_config(params)
    config.update({"eps": eps, "s_list": s_list})
    path = os.path.join(workdir, f"complexity-{index}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    argv = ["complexity", "--config", path, "--cap-set", str(10**30)]
    av, bv = weights_of(params)

    def check(out):
        code, text = out
        require(code == 0, f"complexity exited {code}")
        lines = text.strip().splitlines()
        require(lines[0] == "s,eps,n_all,lemma_lower,lemma_upper", "header")
        rows = [line.split(",") for line in lines[1:]]
        require(len(rows) == len(s_list) * len(eps), "one row per (s, eps)")
        by_eps: dict[str, list[int]] = {}
        for cells in rows:
            require("cap_exceeded" not in cells, "cap hit")
            s, n_all = int(cells[0]), int(cells[2])
            if cells[3] != "n/a":
                # the lemma bracket
                require(float(cells[3]) <= n_all <= float(cells[4]), f"n_all {n_all} outside bracket")
            by_eps.setdefault(cells[1], []).append(n_all)
            if n_all <= BRUTE_LIMIT:
                ref = brute_force_count(av[:s], bv[:s], _budget_of(params, float(cells[1])))
                require(n_all == ref, f"n_all {n_all} != brute force {ref} at s={s}")
        for counts in by_eps.values():
            require(counts == sorted(counts), "n_all decreased with s")

    return Task("complexity_cli", lambda: run_cli(argv), check)


def _count_task(rng, spaces, target, s):
    params = spaces(s)
    x = budget_for_count(params, int(target), lo=1e-3, rel_tol=0.05)
    av, bv = weights_of(params)

    def check(n):
        lower, upper = korobov.count_product_bounds(params, x)
        require(lower <= n <= upper, f"count {n} outside the product bracket")
        if n <= BRUTE_LIMIT:
            ref = brute_force_count(av, bv, x)
            require(n == ref, f"count {n} != brute force {ref}")

    return Task("count", lambda: korobov.count_below(params, x), check)


def _boundary_walks(av, bv, x, rng, walks: int):
    """Points on both sides of {E(h) < x}: random walks from the origin
    that step outward until they leave the set; each contributes its last
    inside point and its first outside point."""
    s = len(av)
    out = []
    for _ in range(walks):
        h = [0] * s
        while True:
            j = int(rng.integers(s))
            step = 1 if h[j] > 0 or (h[j] == 0 and rng.uniform() < 0.5) else -1
            inside = tuple(h)
            h[j] += step
            if not exponent(av, bv, h) < x:
                out += [inside, tuple(h)]
                break
    return out


def _on_lattice_task(rng, spaces, k, s, budgets: int = 10):
    """Budgets equal to lattice exponents taken from the spectrum; the task
    fails if count, enumeration or membership disagree at any of them."""
    params = spaces(s)
    spectrum = korobov.top_eigenvalues(params, int(k))
    av, bv = weights_of(params)
    exps = [exponent(av, bv, h) for h in spectrum.indices]
    cases = []
    for i in sorted(rng.choice(np.arange(len(spectrum) // 4, 3 * len(spectrum) // 4), size=budgets, replace=False)):
        x = spectrum.exponents[int(i)]
        truth = {h for h, e in zip(spectrum.indices, exps) if e < x}
        # every frequency below x plus the spectrum's next 100 beyond it
        queries = list(spectrum.indices[: min(len(spectrum), len(truth) + 100)])
        cases.append((x, truth, queries))

    def run():
        out = []
        for x, _, queries in cases:
            members = korobov.enumerate_below(params, x)
            out.append((korobov.count_below(params, x), members, [h in members for h in queries]))
        return out

    def check(out):
        disagree = []
        for (x, truth, queries), (n, members, answers) in zip(cases, out):
            ref = brute_force_count(av, bv, x)
            if ref != len(truth):
                raise CheckFailed(f"spectrum holds {len(truth)} below x={x!r}, brute force {ref}")
            wrong = sum(1 for h, got in zip(queries, answers) if got != (exponent(av, bv, h) < x))
            listed = set(members.members)
            if n != ref or members.count != ref or listed != truth or wrong:
                disagree.append(
                    f"x={x!r}: count {n}, enumerated {members.count}, true {ref}, "
                    f"{len(listed ^ truth)} members differ, {wrong} membership answers wrong"
                )
        if disagree:
            raise KnownDefect(f"{len(disagree)} of {len(cases)} on-lattice budgets disagree; " + disagree[0])

    return Task("on_lattice", run, check)


def _enumerate_task(rng, spaces, target):
    # one dimension for every enumeration: the cost per member grows with s
    params = spaces(8)
    x = budget_for_count(params, int(target), lo=1e-3)
    av, bv = weights_of(params)
    queries = _boundary_walks(av, bv, x, rng, 400)

    def run():
        members = korobov.enumerate_below(params, x)
        return members, [h in members for h in queries]

    def check(out):
        members, answers = out
        ref = brute_force_count(av, bv, x)
        require(members.count == ref == len(members.members), f"enumerated {members.count}, brute force {ref}")
        keys = [(exponent(av, bv, h), h) for h in members.members]
        require(all(e < x for e, _ in keys), "member at or above the budget")
        require(keys == sorted(keys), "members not ordered by (exponent, h)")
        require(len(set(members.members)) == members.count, "duplicate members")
        if ref <= 5000:
            require(set(members.members) == brute_force_members(av, bv, x), "member set differs")
        for h, got in zip(queries, answers):
            require(got == (exponent(av, bv, h) < x), f"membership wrong for {h}")

    return Task("enumerate", run, check)


def _truncate_task(rng, spaces, support, s):
    params = spaces(s)
    x_f = budget_for_count(params, int(support), lo=1e-3)
    f = korobov.random_unit_ball(params, korobov.enumerate_below(params, x_f), seed=int(rng.integers(2**31)))
    x_t = budget_for_count(params, int(support) // 3, lo=1e-3)
    eps = _eps_of(params, x_t)
    av, bv = weights_of(params)

    def check(g):
        x = _budget_of(params, eps)
        expected = {h for h in f.coefficients if exponent(av, bv, h) < x}
        require(set(g.coefficients) == expected, "kept set differs from {E(h) < x} on supp f")
        require(all(g.coefficients[h] == f.coefficients[h] for h in expected), "kept coefficient changed")
        dropped = math.sqrt(math.fsum(abs(c) ** 2 for h, c in f.coefficients.items() if h not in expected))
        require(dropped <= eps * korobov.norm(f) * (1 + 1e-9), "L2 error above eps * norm")

    return Task("truncate", lambda: korobov.truncate_to_accuracy(params, eps, f), check)


def _duality_task(rng, spaces, k, s):
    params = spaces(s)
    k = int(k)
    eps_list = [_eps_of(params, budget_for_count(params, int(k * f), lo=1e-3)) for f in (0.05, 0.15, 0.3, 0.45)]
    tail_points = [(n, eta) for n in (1, k // 10, k // 2, k) for eta in (0.3, 0.5, 0.9)]
    av, bv = weights_of(params)

    def run():
        spectrum = korobov.top_eigenvalues(params, k)
        counts = [korobov.information_complexity(params, eps) for eps in eps_list]
        tails = [korobov.eigenvalue_tail_bound(params, n, eta) for n, eta in tail_points]
        return spectrum, counts, tails

    def check(out):
        spectrum, counts, tails = out
        lam = spectrum.eigenvalues
        require(len(lam) >= k and lam[0] == 1.0, "spectrum length or head")
        require(all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1)), "eigenvalues not sorted")
        for h, e in zip(spectrum.indices, spectrum.exponents):
            require(abs(exponent(av, bv, h) - e) <= 1e-12 * max(1.0, e), f"exponent of {h}")
        for eps, n in zip(eps_list, counts):
            spectral = sum(1 for v in lam if v > eps * eps)
            require(n < len(lam) and n == spectral, f"complexity {n} != spectral count {spectral}")
        for (n, eta), bound in zip(tail_points, tails):
            require(lam[n - 1] <= bound * (1 + 1e-12), f"trace bound below eigenvalue {n}")

    return Task("duality", run, check)


def _analyze_task(rng, s, ka, kb):
    """Power families c*j**k with the exponents of the stratum moved by up
    to 2%; k_b <= 1 makes the reciprocal sum diverge."""
    ka *= 1.0 + 0.02 * rng.uniform()
    kb *= 1.0 + 0.02 * rng.uniform()
    ca, cb = float(rng.uniform(1.0, 2.0)), float(rng.uniform(1.0, 1.5))
    a, b = korobov.PowerFamily(ca, ka), korobov.PowerFamily(cb, kb)

    def check(report):
        require(report.uexp == (kb > 1.0), "uniform exponential convergence verdict")
        if kb > 1.0:
            ref = zeta(kb) / cb
            require(report.b_sum.lo <= ref <= report.b_sum.hi, f"zeta({kb})/{cb} outside {report.b_sum}")
        else:
            require(report.b_sum.is_infinite, "divergent reciprocal sum reported finite")
        require(report.wt == (ka > 0.0), "weak tractability verdict")
        require(report.a_limit == (math.inf if ka > 0.0 else ca), "limit of a")
        require(report.pt_spt is False and report.tau_lower is None, "power a has zero growth rate")
        b_sum_s = math.fsum(1.0 / b.term(j) for j in range(1, s + 1))
        require(abs(report.exp_rate_s * b_sum_s - 1.0) <= 1e-12, "finite-s rate")

    return Task("analyze", lambda: korobov.analyze(a, b, s), check)


def _kernel_task(rng, spaces, s):
    params = spaces(s)
    params = explicit_params(0.9, params.a.values, params.b.values)
    s = params.s
    pairs = [(tuple(rng.uniform(0, 1, s)), tuple(rng.uniform(0, 1, s))) for _ in range(8)]

    def run():
        values = [(korobov.kernel_eval(params, x, y), korobov.kernel_eval(params, y, x)) for x, y in pairs]
        diag = [korobov.kernel_eval(params, x, x) for x, _ in pairs[:2]]
        return values, diag, korobov.space.kernel_diagonal(params)

    def check(out):
        values, diag, exact_diag = out
        for d in diag:
            require(abs(d - exact_diag) <= 1e-10 * exact_diag, "K(x,x) differs from the diagonal")
        for kxy, kyx in values:
            require(abs(kxy - kyx) <= 1e-12 * exact_diag, "kernel not symmetric")
            require(abs(kxy) <= exact_diag * (1 + 1e-12), "|K(x,y)| above K(x,x)")

    return Task("kernel", run, check)


def _dims(count):
    """Dimensions 6..12 in turn: the seed draws the weights, not the
    dimension, so each stratum costs about the same for every seed."""
    return [6 + i % 7 for i in range(count)]


def lattice_tasks(rng: np.random.Generator) -> list[Task]:
    """Small membership, truncation, verdict and on-lattice tasks, for a
    workload that should also touch those layers; the two on-lattice
    tasks fail at the seed commit with ``KnownDefect``."""
    spaces = Spaces(rng)
    return [
        _enumerate_task(rng, spaces, 2000),
        _truncate_task(rng, spaces, 2000, 6),
        _analyze_task(rng, 8, 0.5, 1.3),
        _analyze_task(rng, 9, 0.0, 0.9),
        _on_lattice_task(rng, spaces, 300, 6),
        _on_lattice_task(rng, spaces, 500, 7),
    ]


def build(rng: np.random.Generator, workdir: str) -> list[Task]:
    spaces = Spaces(rng)
    lad = lambda lo, hi, n: zip(geometric_ladder(lo, hi, n), _dims(n))
    tasks = [_count_task(rng, spaces, t, s) for t, s in lad(1e3, 3e5, 6)]
    tasks += [_count_task(rng, spaces, t, s) for t, s in lad(1e6, 3e6, 2)]
    tasks += [_on_lattice_task(rng, spaces, k, s) for k, s in lad(300, 1500, 8)]
    tasks += [_analyze_task(rng, s, ka, kb) for s, (ka, kb) in zip(_dims(3), [(0.0, 0.9), (0.5, 1.3), (2.0, 2.4)])]
    tasks += [_kernel_task(rng, spaces, s) for s in _dims(2)]
    tasks += [_complexity_task(rng, spaces, workdir, i, t) for i, t in enumerate(geometric_ladder(2e4, 1e6, 3))]
    tasks += [_truncate_task(rng, spaces, n, s) for n, s in lad(3e3, 1.2e4, 2)]
    tasks += [_duality_task(rng, spaces, k, s) for k, s in lad(4e3, 3e4, 3)]
    # Timing on a shared machine drifts by tens of percent between runs,
    # and tasks of different kinds drift differently.  Most of the pool is
    # therefore two blocks of equal enumerations, 30 around the median
    # and 10 around the 90th percentile: however the other tasks reorder,
    # those quantiles stay inside a block.
    tasks += [_enumerate_task(rng, spaces, 8000) for _ in range(30)]
    tasks += [_enumerate_task(rng, spaces, 40000) for _ in range(10)]
    tasks += [_enumerate_task(rng, spaces, t) for t in (70000, 90000)]
    tasks.append(_duality_task(rng, spaces, 60000, 10))
    return tasks
