"""``integrate`` under ``--cap-set``: a kept set over the cap blanks the
oracle cells only.  The integration error and the small-n lower bound do
not read the kept set, so their cells stay, and the run exits 0."""

import json

from korobov.cli import main

# the README demo config: every mesh keeps the 5 frequencies below M = 4
DEMO = {
    "omega": 0.5,
    "s": 2,
    "a": {"family": "constant", "c": 1},
    "b": {"family": "constant", "c": 1},
    "M": 4.0,
    "trunc_x": 40.0,
    "meshes": [[2, 1], [2, 3], [3, 3], [5, 4]],
}


def rows(tmp_path, *flags):
    cfg = tmp_path / "demo.json"
    cfg.write_text(json.dumps(DEMO))
    out = tmp_path / "integrate.csv"
    assert main(["integrate", "--config", str(cfg), "--out", str(out), *flags]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "mesh,n,int_error,int_slack,app_error,app_slack,lower_bound"
    return [line.split(",") for line in lines[1:]]


def test_kept_set_over_the_cap_keeps_the_integration_columns(tmp_path):
    full = rows(tmp_path)
    capped = rows(tmp_path, "--cap-set", "3")
    assert len(capped) == len(full) == 4
    for got, ref in zip(capped, full):
        assert got[:4] == ref[:4] and got[6] == ref[6]
        assert got[4:6] == ["cap_exceeded", "cap_exceeded"]
        assert ref[4] != "cap_exceeded"
