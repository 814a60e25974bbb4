"""Workload ``certify``: certifying grid algorithms' worst-case errors.

Tasks run the ``integrate`` and ``convergence`` subcommands on generated
configs and, as library calls, build one accuracy- or threshold-rule
algorithm and evaluate its three error ceilings plus the integration
error of its grid.  The dense per-coset SVD inside
``exact_worst_case_error`` dominates; grid sampling never runs.

Sizes are pinned per stratum (window size or largest spectrum index)
and the seed draws the space, meshes and rules that realise them, so
every seed gives the same cost ladder with different instances.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import count
import korobov
from common import (
    Task,
    budget_for_count,
    draw_weights,
    explicit_config,
    explicit_params,
    geometric_ladder,
    require,
    run_cli,
)
from reference import dense_svd as REFERENCE

# Seconds per k**3 of one dense singular-value call (one core); used only
# to turn a stratum's target time into a window size.
SVD_SECONDS_PER_K3 = 3.2e-10
LOOP_SECONDS_PER_MEMBER = 12e-6
COSET_CAP = 2000

# Integrate strata: (mesh pair, modelled seconds).  Two clusters of equal
# tasks sit where the pass's median and 90th percentile fall, so those
# quantiles average over several instances instead of resting on one;
# each cluster uses one mesh pair, so the seed changes the instances but
# not the cost model's error.
INTEGRATE_STRATA = (
    [([(5, 4), (3, 3)], 0.04)]
    + [([(2, 1), (3, 1)], 0.1)] * 12
    + [([(2, 2, 1), (3, 2, 2)], 0.15), ([(2, 2), (4, 3)], 0.18), ([(3, 3), (4, 3)], 0.22)]
    + [([(2, 1, 1), (2, 2, 2)], 0.2), ([(1, 2, 2), (3, 3, 3)], 0.25), ([(2, 3), (5, 4)], 0.3)]
    + [([(2, 1), (2, 2)], 0.45)] * 6
)


def _oracle_window(params, threshold: float) -> int:
    return korobov.count_below(params, 2.5 * threshold)


def _floats(cells):
    return [float(c) for c in cells]


# ---------------------------------------------------------------------------
# integrate subcommand


def _window_for(meshes, target_s: float) -> int:
    """Window size whose modelled oracle time over ``meshes`` is target_s:
    a per-member Python loop plus one dense SVD per coset of about
    window/n members."""
    def model(w):
        return w * len(meshes) * LOOP_SECONDS_PER_MEMBER + SVD_SECONDS_PER_K3 * sum(
            math.prod(m) * (w / math.prod(m)) ** 3 for m in meshes
        )

    lo, hi = 10.0, 0.75 * COSET_CAP * min(math.prod(m) for m in meshes)
    if model(hi) <= target_s:
        return int(hi)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if model(mid) < target_s else (lo, mid)
    return int(lo)


def _integrate_task(rng, workdir, index, meshes, window):
    s = len(meshes[0])
    a, b = draw_weights(rng, s, (1.0, 1.4), (1.0, 1.25))
    params = explicit_params(float(rng.uniform(0.45, 0.6)), a, b)
    M = float(rng.uniform(3.0, 6.0))
    threshold = math.log(M) / params.log_inv_omega
    trunc_x = budget_for_count(params, window, lo=threshold * 1.05)
    config = explicit_config(params)
    config.update({"M": M, "trunc_x": trunc_x, "meshes": [list(m) for m in meshes]})
    path = os.path.join(workdir, f"integrate-{index}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    argv = ["integrate", "--config", path]

    def check(out):
        code, text = out
        require(code == 0, f"integrate exited {code}")
        lines = text.strip().splitlines()
        require(lines[0] == "mesh,n,int_error,int_slack,app_error,app_slack,lower_bound", "header")
        require(len(lines) == 1 + len(meshes), "one row per mesh")
        for line, mesh in zip(lines[1:], meshes):
            cells = line.split(",")
            require("cap_exceeded" not in cells, f"cap hit on mesh {mesh}")
            require(cells[0] == "x".join(map(str, mesh)), "mesh label")
            n = int(cells[1])
            require(n == math.prod(mesh), "n is the product of the mesh")
            int_err, int_slack, app_err, app_slack = _floats(cells[2:6])
            require(min(int_err, int_slack, app_err, app_slack) >= 0.0, "negative error or slack")
            # the induced rule never beats the approximation (criterion 09)
            require(int_err <= app_err + app_slack + 1e-10, f"int error {int_err} above oracle upper")
            if n >= 2**s:
                require(cells[6] == "n/a", "lower bound reported for n >= 2**s")
            else:
                require(float(cells[6]) <= int_err + int_slack + 1e-12, "small-n floor above error")

    return Task("integrate_cli", lambda: run_cli(argv), check)


# ---------------------------------------------------------------------------
# convergence subcommand


def _eps_for_points(params, n_target: int) -> float:
    lo, hi = math.log(1e-6), math.log(0.4)
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        n = korobov.mesh_for_accuracy(params, math.exp(mid), cap_n=10**12).grid.n
        if n > n_target:
            lo = mid
        else:
            hi = mid
    return math.exp(hi)


def _convergence_task(rng, workdir, index, n_target):
    """Eight accuracies down to the one whose grid has about n_target
    points.  Of several seeded spaces the one whose grid size and summed
    oracle windows are nearest the stratum's is kept (the windows, about
    0.18 * n_target in total, set the oracle's share of the time)."""
    candidates = []
    for _ in range(6):
        a, b = draw_weights(rng, 2, (1.0, 1.5), (1.0, 1.3))
        params = explicit_params(float(rng.uniform(0.45, 0.6)), a, b)
        eps = [float(v) for v in np.geomspace(0.4, _eps_for_points(params, n_target), 8)]
        n = korobov.mesh_for_accuracy(params, eps[-1]).grid.n
        windows = sum(
            _oracle_window(params, math.log(2.0 / e**2) / params.log_inv_omega) for e in eps
        )
        miss = abs(math.log(n / n_target)) + abs(math.log(windows / (0.18 * n_target)))
        candidates.append((miss, params, eps))
    _, params, eps = min(candidates, key=lambda c: c[0])
    config = explicit_config(params)
    config["eps"] = eps
    path = os.path.join(workdir, f"convergence-{index}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    argv = ["convergence", "--config", path]

    def check(out):
        code, text = out
        require(code == 0, f"convergence exited {code}")
        lines = text.strip().splitlines()
        require(lines[0] == "n,e_all,e_std_bound,e_std_exact", "header")
        rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
        fits = [line.split(",")[1] for line in lines if line.startswith("#fit")]
        require(fits == ["e_all", "e_std_exact"], "fit footers")
        require(len(rows) == len(eps), "one row per accuracy")
        prev_n, prev_all = 0, math.inf
        for cells, target in zip(rows, sorted(eps, reverse=True)):
            require("trunc_overflow" not in cells, "oracle window over cap")
            n = int(cells[0])
            e_all, bound, exact = _floats(cells[1:4])
            require(n >= prev_n and e_all <= prev_all, "errors not monotone in n")
            # accuracy rule guarantee (criterion 07), ErrorReport ordering,
            # and minimal error below any algorithm's certified ceiling
            require(bound <= target * (1 + 1e-12), f"ceiling {bound} above eps {target}")
            require(exact <= bound * (1 + 1e-9) + 1e-12, "oracle above ceiling")
            require(0.0 < e_all <= bound * (1 + 1e-9), "minimal error above ceiling")
            prev_n, prev_all = n, e_all

    return Task("convergence_cli", lambda: run_cli(argv), check)


# ---------------------------------------------------------------------------
# library tasks: one algorithm, every ceiling, the oracle and the grid rule


def _library_check(eps):
    def check(out):
        upper, middle, oracle, integ = out
        require(oracle.largest_coset <= COSET_CAP and oracle.coset_count >= 1, "coset stats")
        # criterion 08: oracle <= aliasing-sum ceiling <= closed-form ceiling
        require(oracle.value <= middle * (1 + 1e-9) + 1e-12, f"oracle {oracle.value} > {middle}")
        require(middle <= upper * (1 + 1e-9) + 1e-12, f"aliasing ceiling {middle} > {upper}")
        require(oracle.slack_sq >= 0.0 and integ.tail_sq >= 0.0, "negative slack")
        # criterion 09: integration error below the approximation's upper end
        require(integ.value <= oracle.upper + 1e-10, "integration above approximation")
        if eps is not None:
            require(upper <= eps and oracle.value <= eps, "accuracy rule missed eps")

    return check


def _library_run(params, make_alg):
    def run():
        alg = make_alg()
        upper = korobov.error_upper_bound(alg)
        middle = korobov.gen_error_bound(alg)
        oracle = korobov.exact_worst_case_error(alg)
        trunc = max(alg.threshold * 1.01, 20.0 / params.log_inv_omega)
        integ = korobov.worst_case_int_error(params, korobov.GridRule(alg.grid), trunc)
        return upper, middle, oracle, integ

    return run


def _closest(candidates, window):
    """The drawn instance whose oracle window is closest to ``window`` in ratio."""
    return min(candidates, key=lambda c: abs(math.log(c[0] / window)))[1:]


def _accuracy_task(rng, window, s):
    """Accuracy rule at eps in [0.02, 0.4]; of several seeded draws the
    one whose oracle window is nearest the stratum's size is kept."""
    candidates = []
    while len(candidates) < 8:
        a, b = draw_weights(rng, s, (1.0, 2.5), (1.0, 2.0))
        params = explicit_params(float(rng.uniform(0.4, 0.65)), a, b)
        eps = float(np.exp(rng.uniform(math.log(0.02), math.log(0.4))))
        if korobov.mesh_for_accuracy(params, eps, cap_n=10**12).grid.n > 10**6:
            continue
        threshold = math.log(2.0 / eps**2) / params.log_inv_omega
        candidates.append((_oracle_window(params, threshold), params, eps))
    params, eps = _closest(candidates, window)
    run = _library_run(params, lambda: korobov.accuracy_algorithm(params, eps))
    return Task("accuracy_lib", run, _library_check(eps))


def _threshold_task(rng, window, s):
    """Threshold rule with M in [10, 2500], chosen like the accuracy draws."""
    candidates = []
    for _ in range(8):
        a, b = draw_weights(rng, s, (1.0, 2.0), (1.0, 1.6))
        params = explicit_params(float(rng.uniform(0.4, 0.65)), a, b)
        M = float(np.exp(rng.uniform(math.log(10.0), math.log(2500.0))))
        beta = float(rng.uniform(0.3, 0.7))
        threshold = math.log(M) / params.log_inv_omega
        candidates.append((_oracle_window(params, threshold), params, M, beta))
    params, M, beta = _closest(candidates, window)
    run = _library_run(params, lambda: korobov.threshold_algorithm(params, M, beta))
    return Task("threshold_lib", run, _library_check(None))


def build(rng: np.random.Generator, workdir: str) -> list[Task]:
    tasks = []
    for i, (meshes, target) in enumerate(INTEGRATE_STRATA):
        tasks.append(_integrate_task(rng, workdir, i, meshes, _window_for(meshes, target)))
    # the criterion-09-sized instance: two cosets of about 1,550
    tasks.append(_integrate_task(rng, workdir, len(tasks), [(2, 1), (5, 4)], 3100))
    # below the 90th-percentile cluster, except the largest (k ~ 1.1e5)
    for i, n in enumerate(geometric_ladder(2.5e4, 4e4, 5) + [1.1e5]):
        tasks.append(_convergence_task(rng, workdir, i, int(n)))
    for i, window in enumerate(geometric_ladder(150, 1200, 6)):
        tasks.append(_accuracy_task(rng, window, 2 + i % 2))
    for i, window in enumerate(geometric_ladder(150, 1200, 6)):
        tasks.append(_threshold_task(rng, window, 2 + i % 2))
    # The count workload's layers at small sizes, below the median block,
    # so this gated workload also measures membership, truncation,
    # tractability verdicts and budgets on lattice exponents (ROADMAP 1).
    tasks += count.lattice_tasks(rng)
    return tasks
