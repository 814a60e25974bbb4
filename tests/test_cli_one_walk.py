"""A CLI run walks once: every kept set and oracle window is a prefix.

``convergence`` and ``integrate`` read their kept sets and the oracle's
windows off one walk at the largest budget that fits ``--cap-set``, and
``enumerate_below`` counts exactly only where its box passes the cap.
The guard counts calls of ``index_set._walk`` and ``index_set._count``
(the names ``enumerate_below`` calls) on the README demo config.
"""

import json
import math
from pathlib import Path

import pytest

from korobov import index_set
from korobov.cli import main
from korobov.index_set import count_below
from korobov.oracle import default_truncation
from korobov.params import load_params
from korobov.sampling import mesh_for_accuracy

DEMO = Path(__file__).parent / "golden" / "demo.json"


@pytest.fixture
def calls(monkeypatch):
    seen = {"_walk": 0, "_count": 0}
    for name in seen:
        inner = getattr(index_set, name)

        def counted(*args, _inner=inner, _name=name):
            seen[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(index_set, name, counted)
    return seen


def run(tmp_path, command, *flags):
    out = tmp_path / f"{command}.csv"
    assert main([command, "--config", str(DEMO), "--out", str(out), *flags]) == 0
    return out.read_text().splitlines()


def test_convergence_walks_once_and_counts_nothing(tmp_path, calls):
    assert len(json.loads(DEMO.read_text())["eps"]) == 8
    lines = run(tmp_path, "convergence")
    assert len(lines) == 1 + 8 + 2
    assert calls == {"_walk": 1, "_count": 0}


def test_integrate_walks_once(tmp_path, calls):
    run(tmp_path, "integrate")
    assert calls == {"_walk": 1, "_count": 0}


def test_a_capped_smallest_window_overflows_its_row_only(tmp_path, calls):
    params = load_params(str(DEMO))
    eps = sorted(json.loads(DEMO.read_text())["eps"], reverse=True)
    thresholds = [math.log(mesh_for_accuracy(params, e).M) / params.log_inv_omega for e in eps[-2:]]
    windows = [count_below(params, default_truncation(x)) for x in thresholds]
    cap = windows[-1] - 1
    assert windows[0] <= cap  # the second-smallest eps still fits
    full = run(tmp_path, "convergence")
    calls.update(_walk=0, _count=0)
    capped = run(tmp_path, "convergence", "--cap-set", str(cap))
    rows = [line.split(",") for line in capped[1:9]]
    assert capped[1:8] == full[1:8]
    assert rows[-1][3] == "trunc_overflow" and rows[-1][:3] == full[8].split(",")[:3]
    assert calls["_walk"] == 1
