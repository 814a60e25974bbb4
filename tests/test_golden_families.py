"""`analyze` and `complexity` output bytes on every family kind.

``tests/golden/families_*.json`` use power, geometric and exponential
closed forms and explicit families continued by a family tail, so the
limits, growth rates, reciprocal sums and sup indices of every kind reach
the CSV.  The outputs were captured before the family facts were derived
from one monotone closed form per kind; they must not move.
"""

import json
import math
from pathlib import Path

import pytest

from korobov.cli import main
from korobov.index_set import count_below, exponent_budget
from korobov.params import ExplicitFamily, KorobovParams

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "config", ["families_power", "families_exponential", "families_geometric", "families_explicit_tail"]
)
@pytest.mark.parametrize("command", ["analyze", "complexity"])
def test_family_output_bytes_are_unchanged(tmp_path, config, command):
    out = tmp_path / f"{command}.out"
    assert main([command, "--config", str(GOLDEN / f"{config}.json"), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{config}_{command}.out").read_bytes()


def test_undeclared_tail_reports_unknown_verdicts(tmp_path):
    out = tmp_path / "analyze.out"
    assert main(["analyze", "--config", str(GOLDEN / "families_no_tail.json"), "--out", str(out)]) == 2
    assert out.read_bytes() == (GOLDEN / "families_no_tail_analyze.out").read_bytes()


def test_undeclared_tail_gives_bounds_from_the_listed_values(tmp_path):
    # eps = 0.2 gives x = log(5)/log(2) > 3 = a_3, the last listed value,
    # but at s <= 2 the bounds read a_1 and a_2 alone
    config = json.loads((GOLDEN / "families_no_tail.json").read_text())
    out = tmp_path / "complexity.out"
    assert main(["complexity", "--config", str(GOLDEN / "families_no_tail.json"), "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == len(config["s_list"]) * len(config["eps"])
    av, bv = config["a"]["values"], config["b"]["values"]
    for s_cell, eps_cell, n_all, lower, upper in rows:
        s, eps = int(s_cell), float(eps_cell)
        params = KorobovParams(omega=config["omega"], a=ExplicitFamily(av), b=ExplicitFamily(bv), s=s)
        x = exponent_budget(params.omega, eps)
        assert int(n_all) == count_below(params, x)
        active = [j for j in range(1, s + 1) if av[j - 1] < x]
        alpha = [(j - 1) / j for j in range(1, s + 1)]
        want_lower = want_upper = 1.0
        for j in active:
            shrink = (1 - alpha[j - 1]) * math.prod(alpha[j:])
            want_lower *= 2 * math.ceil((x * shrink / av[j - 1]) ** (1 / bv[j - 1])) - 1
            want_upper *= 2 * math.ceil((x / av[j - 1]) ** (1 / bv[j - 1])) - 1
        assert (float(lower), float(upper)) == (want_lower, want_upper)
