import inspect
import json
import re

import pytest

from korobov.cli import _build_parser, main
from korobov.grids import DEFAULT_GRID_CAP
from korobov.index_set import DEFAULT_SET_CAP
from korobov.sampling import DEFAULT_COSET_CAP


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


BASE = {
    "omega": 0.5,
    "s": 2,
    "a": {"family": "constant", "c": 1},
    "b": {"family": "constant", "c": 1},
}


def test_analyze_table_and_exit_codes(tmp_path, capsys):
    cfg = write(tmp_path, "a.json", {
        "omega": 0.5, "s": 2,
        "a": {"family": "geometric", "c": 1, "r": 3},
        "b": {"family": "geometric", "c": 1, "r": 2},
    })
    assert main(["analyze", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "tau_lower     1.0" in out and "tau_upper     2.0" in out
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["pt_spt"] is True and payload["wt"] is True

    unknown = write(tmp_path, "u.json", {
        "omega": 0.5, "s": 2,
        "a": {"family": "explicit", "values": [1, 2], "tail": None},
        "b": BASE["b"],
    })
    assert main(["analyze", "--config", unknown]) == 2

    wt_no = write(tmp_path, "w.json", dict(BASE))
    assert main(["analyze", "--config", wt_no]) == 0
    out = capsys.readouterr().out
    assert json.loads(out.strip().splitlines()[-1])["wt"] is False


def test_invalid_configs_exit_one(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["analyze", "--config", missing]) == 1
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{oops")
    assert main(["analyze", "--config", str(bad_json)]) == 1
    bad_omega = write(tmp_path, "o.json", dict(BASE, omega=1.5))
    assert main(["analyze", "--config", bad_omega]) == 1
    err = capsys.readouterr().err
    assert "omega" in err


def test_params_path_indirection(tmp_path, capsys):
    write(tmp_path, "params.json", BASE)
    cfg = write(tmp_path, "run.json", {"params_path": "params.json"})
    assert main(["analyze", "--config", cfg]) == 0
    capsys.readouterr()


def test_complexity_rows_and_sandwich(tmp_path):
    cfg = write(tmp_path, "c.json", dict(BASE, eps=[0.5, 0.1, 0.01], s_list=[1, 2, 3]))
    out = tmp_path / "c.csv"
    assert main(["complexity", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "s,eps,n_all,lemma_lower,lemma_upper"
    assert len(lines) == 1 + 9
    for line in lines[1:]:
        s, eps, n_all, lo, hi = line.split(",")
        assert float(lo) <= float(n_all) <= float(hi)
    # eps -> 1 gives a single frequency
    near_one = write(tmp_path, "c1.json", dict(BASE, eps=[0.99], s_list=[2]))
    out2 = tmp_path / "c1.csv"
    assert main(["complexity", "--config", near_one, "--out", str(out2)]) == 0
    assert out2.read_text().splitlines()[1].split(",")[2] == "1"


def test_convergence_columns_and_fit(tmp_path):
    eps = [0.4, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001]
    cfg = write(tmp_path, "v.json", dict(BASE, s=1, eps=eps))
    out = tmp_path / "v.csv"
    assert main(["convergence", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,e_all,e_std_bound,e_std_exact"
    rows = [l.split(",") for l in lines[1:] if not l.startswith("#")]
    fits = [l for l in lines if l.startswith("#fit")]
    assert len(fits) == 2
    for n, e_all, bound, exact in rows:
        assert 0 < float(e_all) <= float(exact) <= float(bound)
    ns = [int(r[0]) for r in rows]
    es = [float(r[1]) for r in rows]
    assert ns == sorted(ns)
    assert all(b <= a for a, b in zip(es, es[1:]))
    fit_all = next(l for l in fits if l.startswith("#fit,e_all"))
    slope = float(fit_all.split(",")[2])
    assert abs(slope - 1.0) <= 0.15


def test_integrate_ordering_and_na(tmp_path):
    cfg = write(
        tmp_path,
        "i.json",
        dict(BASE, M=4.0, trunc_x=40.0, meshes=[[2, 1], [2, 3], [3, 3], [5, 4]]),
    )
    out = tmp_path / "i.csv"
    assert main(["integrate", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "mesh,n,int_error,int_slack,app_error,app_slack,lower_bound"
    for line in lines[1:]:
        mesh, n, int_err, int_slack, app_err, app_slack, lower = line.split(",")
        assert float(int_err) <= float(app_err) + float(app_slack) + 1e-12
        if int(n) >= 4:
            assert lower == "n/a"
        else:
            assert float(lower) <= float(int_err) + float(int_slack) + 1e-12


def test_integrate_answers_on_a_mesh_side_past_int64(tmp_path):
    # The oracle's residues stay within int64 on any mesh side, so the
    # 10**300 row is written and the 2x3 row is that of a config without it.
    rows = {}
    for name, meshes in (("big", [[10**300, 1], [2, 3]]), ("small", [[2, 3]])):
        cfg = write(tmp_path, f"{name}.json", dict(BASE, M=4.0, trunc_x=40.0, meshes=meshes))
        out = tmp_path / f"{name}.csv"
        assert main(["integrate", "--config", cfg, "--out", str(out)]) == 0
        rows[name] = out.read_text().splitlines()[1:]
    assert len(rows["big"]) == 2
    assert rows["big"][0].startswith(f"{10**300}x1,{10**300},")
    assert rows["big"][1] == rows["small"][0]


def test_determinism_byte_identical(tmp_path):
    eps = [0.4, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002]
    for command, extra in (
        ("complexity", {"eps": eps, "s_list": [1, 2]}),
        ("convergence", {"s": 1, "eps": eps}),
        ("integrate", {"M": 4.0, "trunc_x": 30.0, "meshes": [[2, 2], [3, 4]]}),
    ):
        cfg = write(tmp_path, f"{command}.json", dict(BASE, **extra))
        out1 = tmp_path / f"{command}1.csv"
        out2 = tmp_path / f"{command}2.csv"
        assert main([command, "--config", cfg, "--out", str(out1)]) == 0
        assert main([command, "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    from korobov.cli import _build_parser

    assert _build_parser() is _build_parser()
    eps = [0.4, 0.2, 0.1, 0.05]
    conv = write(tmp_path, "v.json", dict(BASE, s=1, eps=eps))
    integ = write(tmp_path, "i.json", dict(BASE, M=4.0, trunc_x=30.0, meshes=[[2, 2], [3, 4]]))
    comp = write(tmp_path, "c.json", dict(BASE, eps=eps, s_list=[1, 2]))

    def run(*argv):
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 0
        return out.read_bytes()

    def run_stdout(*argv):
        capsys.readouterr()
        assert main(list(argv)) == 0
        return capsys.readouterr().out.encode()

    first = {
        "convergence": run("convergence", "--config", conv),
        "integrate": run("integrate", "--config", integ),
        "complexity": run("complexity", "--config", comp),
    }
    assert run("convergence", "--config", conv) == first["convergence"]
    # other subcommands and flags in between leave the defaults untouched
    capped = run("convergence", "--config", conv, "--cap-n", "10")
    assert b"cap_exceeded" in capped and capped != first["convergence"]
    tight = run_stdout("integrate", "--config", integ, "--coset-cap", "1")
    assert b"cap_exceeded" in tight
    assert run_stdout("complexity", "--config", comp) == first["complexity"]
    for command, cfg in (("integrate", integ), ("convergence", conv), ("complexity", comp)):
        assert run(command, "--config", cfg) == first[command]
        assert run_stdout(command, "--config", cfg) == first[command]


def test_convergence_marks_capped_grids(tmp_path):
    # at eps = 0.2 the accuracy grid needs 1,611,498 points, over the
    # default cap of 10**6: every such row stays, marked, out of the fits
    cfg = write(tmp_path, "cap.json", {
        "omega": 0.55, "s": 3,
        "a": {"family": "explicit", "values": [1, 1.17, 1.43]},
        "b": {"family": "explicit", "values": [1, 1.09, 1.21]},
        "eps": [0.4, 0.2, 0.1, 0.07, 0.05, 0.03, 0.02, 0.015],
    })
    out = tmp_path / "cap.csv"
    assert main(["convergence", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    rows = [l.split(",") for l in lines[1:] if not l.startswith("#")]
    assert len(rows) == 8
    n, e_all, bound, exact = rows[0]
    assert int(n) <= 10**6 and 0 < float(e_all) <= float(exact) <= float(bound)
    assert rows[1][0] == "1611498"
    needed = [int(r[0]) for r in rows[1:]]
    assert needed == sorted(needed) and needed[0] > 10**6
    assert all(r[1:] == ["cap_exceeded"] * 3 for r in rows[1:])
    # one row fits, and a fit needs two
    assert [l for l in lines if l.startswith("#fit")] == [
        "#fit,e_all,n/a,n/a,n/a",
        "#fit,e_std_exact,n/a,n/a,n/a",
    ]


def test_each_subcommand_takes_the_caps_its_handler_reads():
    # three caps on four subcommands: six of the twelve would do nothing
    defaults = {"cap_n": DEFAULT_GRID_CAP, "cap_set": DEFAULT_SET_CAP, "coset_cap": DEFAULT_COSET_CAP}
    flags = {"cap_n": "--cap-n", "cap_set": "--cap-set", "coset_cap": "--coset-cap"}
    parser = _build_parser()
    settable = 0
    for command in ("analyze", "complexity", "convergence", "integrate"):
        args = parser.parse_args([command, "--config", "cfg.json"])
        read = set(re.findall(r"args\.(\w+)", inspect.getsource(args.handler))) & set(defaults)
        assert {k: v for k, v in vars(args).items() if k in defaults} == {k: defaults[k] for k in read}
        for dest, flag in flags.items():
            if dest in read:
                assert getattr(parser.parse_args([command, "--config", "c", flag, "7"]), dest) == 7
            else:
                with pytest.raises(SystemExit):
                    parser.parse_args([command, "--config", "c", flag, "7"])
        settable += len(read)
    assert settable == 6


@pytest.mark.parametrize(
    "command,key,token,path",
    [
        ("integrate", "trunc_x", '"abc"', "trunc_x"),
        ("integrate", "trunc_x", "null", "trunc_x"),
        ("integrate", "trunc_x", "[1]", "trunc_x"),
        ("integrate", "trunc_x", "1e999", "trunc_x"),
        ("integrate", "trunc_x", "true", "trunc_x"),
        ("integrate", "M", "1e999", "M"),
        ("integrate", "meshes", '"a"', "meshes[0][1]"),
        ("integrate", "meshes", "2.7", "meshes[0][1]"),
        ("integrate", "meshes", "true", "meshes[0][1]"),
        ("complexity", "s_list", "true", "s_list[0]"),
        ("complexity", "eps", "1e999", "eps[0]"),
        # b = constant(inf) once sent analyze into a ZeroDivisionError and
        # let complexity print lemma_upper = 1 below n_all = 9
        ("analyze", "b", "Infinity", "b.c"),
        ("complexity", "b", "Infinity", "b.c"),
        ("analyze", "omega", "NaN", "omega"),
        ("complexity", "omega", "1e999", "omega"),
        ("analyze", "a", "-Infinity", "a.values[1]"),
        ("complexity", "a", "NaN", "a.values[1]"),
    ],
)
def test_bad_config_numbers_exit_one_with_one_error_line(tmp_path, capsys, command, key, token, path):
    config = dict(BASE, eps=[0.1], s_list=[1], M=4.0, trunc_x=40.0, meshes=[[2, 3]])
    config[key] = {
        "meshes": [[2, "@"]],
        "s_list": ["@"],
        "eps": ["@"],
        "a": {"family": "explicit", "values": [1, "@"], "tail": "repeat"},
        "b": {"family": "constant", "c": "@"},
    }.get(key, "@")
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config).replace('"@"', token))
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert not out.exists()


def test_complexity_validates_the_space_at_every_dimension(tmp_path, capsys):
    a = {"family": "explicit", "values": [1, 3, 2], "tail": "repeat"}
    cfg = write(tmp_path, "m.json", dict(BASE, a=a, eps=[0.1], s_list=[2, 3]))
    out = tmp_path / "m.csv"
    assert main(["complexity", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: s_list[1]: a_3 = 2.0 < a_2 = 3.0\n"
    assert not out.exists()

