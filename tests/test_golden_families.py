"""`analyze` and `complexity` output bytes on every family kind.

``tests/golden/families_*.json`` use power, geometric and exponential
closed forms and explicit families continued by a family tail, so the
limits, growth rates, reciprocal sums and sup indices of every kind reach
the CSV.  The outputs were captured before the family facts were derived
from one monotone closed form per kind; they must not move.
"""

from pathlib import Path

import pytest

from korobov.cli import main

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


def test_undeclared_tail_refuses_a_budget_past_the_values(tmp_path, capsys):
    # eps = 0.2 gives x = log(5)/log(2) > 3 = a_3, the last listed value
    out = tmp_path / "complexity.out"
    assert main(["complexity", "--config", str(GOLDEN / "families_no_tail.json"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: sup index for x=3.4739311883324127 depends on the undeclared tail"
        " of an explicit family\n"
    )
    assert not out.exists()
