"""gen_error_bound against a 40-digit evaluation of its own formula.

sqrt(1/M + sum_{h in A} omega**E(h) * sum_j rho_j * prod_{i<j} (1 + rho_i)),
rho_j the rest of h_j's coset over h_j's own weight, is evaluated with
exact exponents and coset sums summed to 1e-50 of their first term; the
float ceiling must not sit below it.
"""

import math

import mpmath as mp
import pytest

from conftest import make_params
from korobov.params import GeometricFamily, KorobovParams, validate
from korobov.sampling import accuracy_algorithm, gen_error_bound, threshold_algorithm


def exact_radicand(alg):
    params = alg.params
    om = mp.mpf(params.omega)
    av = [mp.mpf(params.a_term(j)) for j in range(1, params.s + 1)]
    bv = [mp.mpf(params.b_term(j)) for j in range(1, params.s + 1)]
    cache = {}

    def rho(j, hj):
        key = (j, abs(hj))
        if key not in cache:
            a, b, m, r = av[j], bv[j], alg.grid.mesh[j], abs(hj)
            rest, l = mp.mpf(0), 0
            while True:
                l += 1
                last = om ** (a * mp.mpf(r + m * l) ** b) + om ** (a * mp.mpf(abs(m * l - r)) ** b)
                rest += last
                if m * l >= r and last < mp.mpf(10) ** -50 * rest:
                    break
            cache[key] = rest / om ** (a * mp.mpf(r) ** b)
        return cache[key]

    total = mp.mpf(1) / mp.mpf(alg.M)
    for h in alg.index_set.members:
        exponent = mp.fsum(a * mp.mpf(abs(hj)) ** b for a, b, hj in zip(av, bv, h))
        grown, spill = mp.mpf(1), mp.mpf(0)
        for j, hj in enumerate(h):
            r = rho(j, hj)
            spill += r * grown
            grown *= 1 + r
        total += om**exponent * spill
    return total


def assert_ceiling(alg):
    with mp.workdps(40):
        exact = mp.sqrt(exact_radicand(alg))
        got = gen_error_bound(alg)
        assert mp.mpf(got) >= exact
        # and tight: the widening is a few thousand units of 2**-53
        assert mp.mpf(got) <= exact * (1 + mp.mpf(1e-11))


@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8])
def test_gen_error_bound_is_a_ceiling_accuracy_rule(eps):
    p = make_params(0.5, (1, 1.2), (1, 1.1))
    assert_ceiling(accuracy_algorithm(p, eps))


@pytest.mark.parametrize(
    "params, M, beta",
    [
        (make_params(0.6, (1, 1.3), (1, 1.2)), 200.0, 0.4),
        (make_params(0.45, (1.5, 1.5, 1.5), (1, 1, 1)), 1000.0, 0.6),
        (validate(KorobovParams(omega=0.5, a=GeometricFamily(1, 3), b=GeometricFamily(1, 2), s=3)), 50.0, 0.5),
    ],
)
def test_gen_error_bound_is_a_ceiling_threshold_rule(params, M, beta):
    assert_ceiling(threshold_algorithm(params, M, beta))


def test_coset_rest_survives_weights_near_one():
    # q = omega**(a*m**b) near 1: q/(1-q) is formed without cancellation
    p = make_params(0.98, (1,), (1,))
    alg = threshold_algorithm(p, 3.0, 0.5)
    assert math.isfinite(gen_error_bound(alg))
    assert_ceiling(alg)
