"""``convergence`` under ``--cap-set``: a kept set over the cap is a marked
row, not a failed run."""

import json

from korobov.cli import main

CONFIG = {
    "omega": 0.5,
    "s": 2,
    "a": {"family": "explicit", "values": [1, 1.5]},
    "b": {"family": "explicit", "values": [1, 1.2]},
    "eps": [0.3, 0.1, 0.03, 0.01],
}


def run(tmp_path, *flags):
    cfg = tmp_path / "conv.json"
    cfg.write_text(json.dumps(CONFIG))
    out = tmp_path / "conv.csv"
    assert main(["convergence", "--config", str(cfg), "--out", str(out), *flags]) == 0
    lines = out.read_text().splitlines()
    return [l.split(",") for l in lines[1:] if not l.startswith("#")], [
        l for l in lines if l.startswith("#fit")
    ]


def test_kept_sets_over_the_cap_are_marked_rows(tmp_path):
    full, _ = run(tmp_path)
    # the kept sets hold 25, 69, 129 and 201 frequencies: only the first
    # fits under 30
    rows, fits = run(tmp_path, "--cap-set", "30")
    assert len(rows) == 4
    assert [r[0] for r in rows] == [r[0] for r in full]
    # the first row keeps its n, e_all and ceiling; its oracle window is
    # over the cap too
    assert rows[0][:3] == full[0][:3] and rows[0][3] == "trunc_overflow"
    assert all(r[1:] == ["cap_exceeded"] * 3 for r in rows[1:])
    # a capped row stays out of both fits, and one row is no fit
    assert fits == ["#fit,e_all,n/a,n/a,n/a", "#fit,e_std_exact,n/a,n/a,n/a"]
