"""Acceptance suite: one test per criterion, printing a pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is pinned here, not deferred: counting is exact, the
aliasing identity holds to 1e-11 relative, sandwich/ordering properties
allow only certified slack, rate fits sit within 15 percent, and the
timed criteria assert their budgets.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import brute_force_count, make_params, random_instance
from korobov.cli import main as cli_main
from korobov.grids import RegularGrid, aliased_coefficients, dual_coset_sum
from korobov.index_set import (
    count_below,
    count_product_bounds,
    enumerate_below,
    weight_exponent,
)
from korobov.integration import GridRule, small_n_lower_bound, worst_case_int_error
from korobov.oracle import exact_worst_case_error
from korobov.params import (
    ConstantFamily,
    GeometricFamily,
    Interval,
    PowerFamily,
)
from korobov.sampling import (
    build_std_algorithm,
    error_upper_bound,
    gen_error_bound,
    mesh_for_accuracy,
)
from korobov.space import (
    FourierPolynomial,
    basis_function,
    evaluate,
    inner,
    kernel_eval,
    norm,
    random_unit_ball,
)
from korobov.spectra import (
    eigenvalue_tail_bound,
    information_complexity,
    top_eigenvalues,
)
from korobov.tractability import (
    analyze,
    derive_report,
    fit_exponential_rate_log,
    staircase_corners,
)

SEED = 0xC0FFEE


def report(criterion: int, message: str) -> None:
    print(f"criterion {criterion:02d}: PASS - {message}", flush=True)


@pytest.fixture(scope="module")
def counting_instances():
    rng = np.random.default_rng(SEED)
    return [random_instance(rng, s_max=4, x_max=50.0, work_cap=200_000) for _ in range(200)]


def test_criterion_01_counting_oracle(counting_instances):
    start = time.time()
    for params, x in counting_instances:
        assert count_below(params, x) == brute_force_count(params, x)
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(1, f"200 randomized counts match brute force exactly in {elapsed:.1f}s")


def test_criterion_02_sandwich(counting_instances):
    violations = 0
    cube_checks = 0
    for params, x in counting_instances:
        n = count_below(params, x)
        lower, upper = count_product_bounds(params, x)
        if not (lower <= n <= upper):
            violations += 1
        total_a = sum(params.a_term(j) for j in range(1, params.s + 1))
        if x > total_a:
            cube_checks += 1
            if n < 3**params.s:
                violations += 1
    assert violations == 0
    report(2, f"sandwich held on all 200 instances ({cube_checks} also hit the 3^s floor)")


def test_criterion_03_rate_law():
    start = time.time()
    cases = [(1, (1,)), (2, (1, 1)), (2, (1, 2)), (3, (1, 2, 4))]
    fitted = []
    for s, bs in cases:
        params = make_params(0.5, (1,) * s, bs)
        b_sum = sum(1.0 / b for b in bs)
        exponents = top_eigenvalues(params, 5002).exponent_array.tolist()
        pairs = [(n, 0.5 * exponents[n] * params.log_inv_omega) for n in range(50, 5001)]
        fit = fit_exponential_rate_log(staircase_corners(pairs))
        assert abs(fit.slope - 1.0 / b_sum) <= 0.15 / b_sum, (s, bs, fit.slope)
        fitted.append(f"s={s},b={bs}: p={fit.slope:.3f} vs {1/b_sum:.3f}")
    elapsed = time.time() - start
    assert elapsed < 120.0
    report(3, f"fitted rates within 15% ({'; '.join(fitted)}) in {elapsed:.1f}s")


def test_criterion_04_duality():
    rng = np.random.default_rng(SEED + 4)
    checked = 0
    while checked < 100:
        params, _ = random_instance(rng, s_max=3, x_max=8.0, work_cap=20_000)
        spectrum = top_eigenvalues(params, 400)
        for _ in range(20):
            eps = float(rng.uniform(0.05, 0.95))
            if any(abs(eps * eps - lam) < 1e-9 for lam in spectrum.eigenvalues):
                continue
            n = information_complexity(params, eps)
            if n >= len(spectrum) - 1:
                continue
            assert n == sum(1 for lam in spectrum.eigenvalues if lam > eps * eps)
            checked += 1
            if checked == 100:
                break
    report(4, "information complexity equals the spectral count on 100 accuracies")


def test_criterion_05_eigenvalue_tail_bound():
    rng = np.random.default_rng(SEED + 5)
    violations = 0
    for _ in range(20):
        params, _ = random_instance(rng, s_max=3, x_max=8.0, work_cap=20_000)
        spectrum = top_eigenvalues(params, 200)
        for eta in (0.3, 0.5, 0.9):
            for n in range(1, 201):
                if spectrum.eigenvalues[n - 1] > eigenvalue_tail_bound(params, n, eta) * (1 + 1e-12):
                    violations += 1
    assert violations == 0
    report(5, "trace bound dominated all 200 ordered weights on 20 spaces, three etas")


def test_criterion_06_aliasing_identity():
    rng = np.random.default_rng(SEED + 6)
    worst = 0.0
    for _ in range(500):
        s = int(rng.integers(1, 4))
        params = make_params(
            float(rng.uniform(0.2, 0.8)),
            np.sort(rng.uniform(1.0, 2.0, size=s)),
            rng.uniform(1.0, 2.5, size=s),
        )
        while True:
            mesh = tuple(int(v) for v in rng.integers(1, 22, size=s))
            if math.prod(mesh) <= 10_000:
                break
        grid = RegularGrid(mesh)
        coeffs = {}
        for _ in range(int(rng.integers(5, 26))):
            h = tuple(int(v) for v in rng.integers(-6, 7, size=s))
            coeffs[h] = complex(rng.normal(), rng.normal())
        f = FourierPolynomial(params, coeffs)
        target = tuple(int(v) for v in rng.integers(-8, 9, size=s))
        sampled = aliased_coefficients(grid, f, [target])[0]
        direct = dual_coset_sum(grid, f, target)
        scale = max(1.0, sum(abs(c) for c in coeffs.values()))
        worst = max(worst, abs(sampled - direct) / scale)
    assert worst <= 1e-11
    report(6, f"sampled vs dual-lattice coefficients agreed to {worst:.2e} relative on 500 draws")


@pytest.fixture(scope="module")
def accuracy_rule_instances():
    specs = [
        ((1,), (1,), 0.3), ((1,), (1,), 0.1), ((1,), (1,), 0.02),
        ((1,), (2,), 0.2), ((1,), (2,), 0.03), ((1.5,), (1.5,), 0.1),
        ((1, 1), (1, 1), 0.3), ((1, 1), (1, 1), 0.15), ((1, 2), (1, 2), 0.2),
        ((1, 2), (1, 2), 0.05), ((1, 3), (1, 1), 0.2), ((1.5, 2), (1, 1.5), 0.1),
        ((1, 1, 1), (1, 1, 2), 0.3), ((1, 2, 4), (1, 1, 2), 0.2),
        ((1, 2, 4), (1, 2, 4), 0.15), ((1, 2, 6), (1, 2, 4), 0.1),
        ((2, 3, 5), (1, 2, 2), 0.2), ((1, 1, 2), (1, 2, 2), 0.25),
        ((1, 4, 9), (2, 2, 2), 0.1), ((1, 2, 2), (1.5, 1.5, 2), 0.2),
    ]
    out = []
    for a_terms, b_terms, eps in specs:
        params = make_params(0.5, a_terms, b_terms)
        choice = mesh_for_accuracy(params, eps, cap_n=10**9)
        alg = build_std_algorithm(params, choice.M, choice.grid)
        trunc = alg.threshold + 8.0 * math.log(10.0) / params.log_inv_omega
        oracle = exact_worst_case_error(alg, trunc, cap_set=10**6, coset_cap=4000)
        out.append((params, eps, alg, oracle))
    return out


def test_criterion_07_accuracy_rule_guarantee(accuracy_rule_instances):
    assert len(accuracy_rule_instances) == 20
    for params, eps, alg, oracle in accuracy_rule_instances:
        assert error_upper_bound(alg) <= eps
        assert oracle.value <= eps

    slopes = []
    for a_terms, b_terms in (((1,), (1,)), ((1, 2), (1, 2))):
        params = make_params(0.5, a_terms, b_terms)
        b_sum = sum(1.0 / b for b in b_terms)
        xs, ys = [], []
        for k in range(1, 7):
            eps = 10.0**-k
            choice = mesh_for_accuracy(params, eps, cap_n=10**18)
            xs.append(math.log(math.log(1.0 + 1.0 / eps)))
            ys.append(math.log(choice.grid.n))
        slope = float(np.polyfit(xs, ys, 1)[0])
        slopes.append(slope)
        assert slope <= b_sum + 0.2
    report(7, f"20 constructions met eps; n-growth slopes {', '.join(f'{v:.2f}' for v in slopes)} within B_s+0.2")


def test_criterion_08_bound_chain(accuracy_rule_instances):
    for params, eps, alg, oracle in accuracy_rule_instances:
        middle = gen_error_bound(alg)
        upper = error_upper_bound(alg)
        assert oracle.value <= middle * (1 + 1e-9) + 1e-12
        assert middle <= upper * (1 + 1e-9) + 1e-12
    report(8, "oracle <= aliasing-sum bound <= closed-form bound on all 20 constructions")


def test_criterion_09_integration_ordering(accuracy_rule_instances):
    # grids from criterion 7: induced rule error below approximation error
    for params, eps, alg, oracle in accuracy_rule_instances:
        trunc = max(alg.threshold * 1.01, 20.0 / params.log_inv_omega)
        res = worst_case_int_error(params, GridRule(alg.grid), trunc)
        assert res.value <= oracle.upper + 1e-10
        bound = small_n_lower_bound(params, alg.grid.n)
        if bound is not None:
            assert bound <= res.upper + 1e-12

    # independent mesh sweep with the lower bound active
    sweep = {
        1: [(1,), (2,), (3,), (7,)],
        2: [(1, 1), (2, 1), (1, 2), (3, 1), (2, 3), (5, 5)],
        3: [(1, 1, 1), (2, 1, 1), (2, 2, 1), (1, 3, 2), (2, 2, 3), (3, 3, 3)],
    }
    checked = 0
    for s, meshes in sweep.items():
        params = make_params(0.5, (1,) * s, (1,) * s)
        alg = build_std_algorithm(params, 4.0, RegularGrid((3,) * s))
        app = exact_worst_case_error(alg, alg.threshold + 20.0 / params.log_inv_omega)
        for mesh in meshes:
            rule = GridRule(RegularGrid(mesh))
            res = worst_case_int_error(params, rule, 20.0 / params.log_inv_omega)
            bound = small_n_lower_bound(params, rule.n)
            if bound is not None:
                assert bound <= res.upper + 1e-12
                checked += 1
            if mesh == (3,) * s:
                assert res.value <= app.upper + 1e-10
    assert checked >= 9
    report(9, f"integration never beat approximation and the small-n floor held ({checked} floors)")


def test_criterion_10_tractability_verdicts():
    strong = analyze(GeometricFamily(1, 3), GeometricFamily(1, 2), 4)
    assert strong.uexp is True and strong.wt is True and strong.pt_spt is True
    assert strong.b_sum == Interval(1.0, 1.0)
    assert (strong.tau_lower, strong.tau_upper) == (1.0, 2.0)

    no_uexp = analyze(GeometricFamily(1, 3), ConstantFamily(1), 5)
    assert no_uexp.uexp is False and no_uexp.exp_rate_s == pytest.approx(0.2)
    assert no_uexp.pt_spt is False

    no_wt = analyze(ConstantFamily(1), GeometricFamily(1, 2), 3)
    assert no_wt.wt is False

    slow_growth = analyze(PowerFamily(1, 2), GeometricFamily(1, 2), 3)
    assert slow_growth.wt is True and slow_growth.pt_spt is False

    pinned = derive_report(3, 1.0, Interval(1.0, 1.0), math.inf, math.inf)
    assert pinned.tau_lower == pinned.tau_upper == 1.0

    report(10, "all four family verdicts exact; bracket [1,2]; infinite growth pins tau to b_sum")


def test_criterion_11_rkhs_sanity():
    rng = np.random.default_rng(SEED + 11)
    worst_eig = 0.0
    for _ in range(50):
        params, _ = random_instance(rng, s_max=3, x_max=5.0, work_cap=2_000)
        pts = rng.uniform(0, 1, size=(5, params.s))
        gram = np.array([[kernel_eval(params, p, q, tol=1e-13) for q in pts] for p in pts])
        eigs = np.linalg.eigvalsh((gram + gram.T) / 2.0)
        floor = -1e-9 * float(np.trace(gram))
        assert eigs.min() >= floor
        worst_eig = min(worst_eig, eigs.min() / max(float(np.trace(gram)), 1.0))

    for _ in range(20):
        params, budget = random_instance(rng, s_max=3, x_max=6.0, work_cap=4_000)
        support = enumerate_below(params, budget)
        f = random_unit_ball(params, support, seed=int(rng.integers(0, 2**31)))
        x = rng.uniform(0, 1, params.s)
        log_w = math.log(params.omega)
        section = FourierPolynomial(
            params,
            {
                h: math.exp(weight_exponent(params, h) * log_w)
                * complex(math.cos(-2 * math.pi * sum(a * b for a, b in zip(h, x))),
                          math.sin(-2 * math.pi * sum(a * b for a, b in zip(h, x))))
                for h in f.support
            },
        )
        assert abs(inner(f, section) - evaluate(f, x)) <= 1e-10

        for h in list(support.members)[:5]:
            assert abs(norm(basis_function(params, h)) - 1.0) <= 1e-12
    report(11, f"Gram PSD (worst relative eigenvalue {worst_eig:.1e}), reproducing and unit-norm checks held")


def test_criterion_12_cli_determinism(tmp_path):
    config = {
        "omega": 0.5,
        "s": 2,
        "a": {"family": "constant", "c": 1},
        "b": {"family": "constant", "c": 1},
        "eps": [0.4, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002],
        "s_list": [1, 2],
        "M": 4.0,
        "trunc_x": 30.0,
        "meshes": [[2, 2], [3, 4], [5, 5]],
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    for command in ("complexity", "convergence", "integrate"):
        one = tmp_path / f"{command}-one.csv"
        two = tmp_path / f"{command}-two.csv"
        assert cli_main([command, "--config", str(cfg), "--out", str(one)]) == 0
        assert cli_main([command, "--config", str(cfg), "--out", str(two)]) == 0
        assert one.read_bytes() == two.read_bytes()
    report(12, "complexity, convergence and integrate runs were byte-identical")
