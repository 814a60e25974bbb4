"""Golden ``integrate`` cells against a 50-digit truth.

``tests/test_golden_csv.py`` locks the bytes of the golden outputs; this
module checks that the integration columns hold the true value.  The
worst-case integration error of a grid rule is
sqrt(prod_j (1 + 2 S(a_j m_j**b_j, b_j)) - 1) with
S(c, b) = sum_{h >= 1} omega**(c h**b), summed here at 50 digits until a
term falls below 1e-70, on the float parameters the CLI reads.  Every row
must satisfy int_error <= truth <= int_error + int_slack, both cells read
back as the floats the CLI printed (``int_slack`` is printed as the upper
end minus ``int_error``).

Every ``n_all`` cell of every golden ``complexity`` output, the weight
families' included, must equal the independent brute-force count of
``conftest.brute_force_count`` at the budget exponent_budget(omega, eps)
of the row's s and eps.

Not audited yet: ``app_error``/``app_slack`` and ``lower_bound`` of
``integrate``, every cell of ``analyze`` and ``convergence``, the
``lemma_lower``/``lemma_upper`` cells of ``complexity``, and the other
weight-family goldens of ``tests/test_golden_families.py``.  ``mesh`` and
``n`` are exact integers.
"""

from pathlib import Path

import mpmath as mp
import pytest

from conftest import brute_force_count
from korobov.index_set import exponent_budget
from korobov.params import KorobovParams, a_values, b_values, load_params, validate

GOLDEN = Path(__file__).parent / "golden"


def series(log_omega, c, b):
    """sum_{h >= 1} omega**(c h**b), stopped once a term is below 1e-70."""
    total, h = mp.mpf(0), 1
    while True:
        term = mp.exp(log_omega * c * mp.mpf(h) ** b)
        total += term
        if term < mp.mpf("1e-70"):
            return total
        h += 1


def golden_rows(config):
    lines = (GOLDEN / f"{config}_integrate.out").read_text().splitlines()
    return [line.split(",") for line in lines[1:]]


@pytest.mark.parametrize("config", ["demo", "s3_real"])
def test_int_error_and_slack_hold_the_50_digit_truth(config):
    params = load_params(str(GOLDEN / f"{config}.json"))
    av, bv = a_values(params), b_values(params)
    rows = golden_rows(config)
    assert rows
    with mp.workdps(50):
        log_omega = mp.log(mp.mpf(params.omega))
        for mesh, _, int_error, int_slack, *_ in rows:
            product = mp.mpf(1)
            for a, b, m in zip(av, bv, map(int, mesh.split("x"))):
                product *= 1 + 2 * series(log_omega, mp.mpf(a) * mp.mpf(m) ** mp.mpf(b), mp.mpf(b))
            truth = mp.sqrt(product - 1)
            value, slack = mp.mpf(float(int_error)), mp.mpf(float(int_slack))
            assert value <= truth <= value + slack, (config, mesh)


@pytest.mark.parametrize("output", sorted(GOLDEN.glob("*_complexity.out")), ids=lambda path: path.stem)
def test_n_all_is_the_brute_force_count(output):
    base = load_params(str(GOLDEN / output.name.replace("_complexity.out", ".json")))
    rows = [line.split(",") for line in output.read_text().splitlines()[1:]]
    audited = 0
    for s, eps, n_all, *_ in rows:
        if n_all == "cap_exceeded":
            continue
        params = validate(KorobovParams(omega=base.omega, a=base.a, b=base.b, s=int(s)))
        assert int(n_all) == brute_force_count(params, exponent_budget(params.omega, float(eps))), (s, eps)
        audited += 1
    assert audited
