"""The four subcommands' output bytes on two fixed configs.

``tests/golden`` holds the README demo config and an s = 3 real-weight
config with the output of every subcommand on each, captured before the
oracle ran all of a run's grids in one bracket loop.  The bytes must not
move: the batched oracle, the shared windows, the closed-form cosets and
the rank-selection reading of ``e_all`` change how the numbers are
reached, not the numbers.
The s = 3 ``integrate`` run also holds a mesh over the coset cap.
"""

from pathlib import Path

import pytest

from korobov.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("config", ["demo", "s3_real"])
@pytest.mark.parametrize("command", ["analyze", "complexity", "convergence", "integrate"])
def test_output_bytes_are_unchanged(tmp_path, config, command):
    out = tmp_path / f"{command}.out"
    assert main([command, "--config", str(GOLDEN / f"{config}.json"), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{config}_{command}.out").read_bytes()
