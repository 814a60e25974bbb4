"""Command-line harness: desk-scale experiments with machine-readable output.

Subcommands::

    korobov analyze     --config cfg.json   tractability verdict table
    korobov complexity  --config cfg.json   counts vs product bounds per (s, eps)
    korobov convergence --config cfg.json   errors vs n, with fitted rates
    korobov integrate   --config cfg.json   integration vs approximation errors

The config file is JSON; space parameters live either inline (omega, s,
a, b at top level), under a "params" object, or behind a "params_path"
reference.  Command-specific keys: "eps" (list), "s_list" (list),
"meshes" (list of mesh vectors), "M", "trunc_x".

CSV output uses a header row, '.' decimals, 17 significant digits, and
"#fit"-prefixed footer records, so runs diff cleanly; an identical
config gives byte-identical files.  Exit codes: 0 success, 1 invalid
config, 2 verdicts left unknown.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys

from .errors import CapExceeded, ConfigError, InvalidParameterError, KorobovError
from .grids import DEFAULT_GRID_CAP, RegularGrid
from .index_set import DEFAULT_SET_CAP, _nested, count_below, count_product_bounds, exponent_budget
from .integration import GridRule, small_n_lower_bound, worst_case_int_error
# build_std_algorithm, exact_worst_case_error and top_eigenvalues are not
# called here: kept sets are read off the oracle's walk, the oracle runs
# through oracle._oracle_many and e_all comes by rank selection.  The names
# stay importable from this module because bench/tracer.py wraps them here.
from .oracle import DEFAULT_COSET_CAP, _oracle_many, default_truncation, exact_worst_case_error  # noqa: F401
from .params import KorobovParams, _number, _read_json, load_params, params_from_config, validate
from .sampling import StdAlgorithm, build_std_algorithm, error_upper_bound, mesh_for_accuracy  # noqa: F401
from .spectra import _nth_exponents, top_eigenvalues  # noqa: F401
from .tractability import analyze, fit_exponential_rate, staircase_corners

_EXIT_OK = 0
_EXIT_CONFIG = 1
_EXIT_UNKNOWN = 2


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")


def _write_lines(out_path: str, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _load_config(path: str) -> dict:
    obj = _read_json(path)
    if not isinstance(obj, dict):
        raise ConfigError(str(path), "top level must be an object")
    return obj


def _params_of(config: dict, config_path: str) -> KorobovParams:
    if "params_path" in config:
        ref = config["params_path"]
        base = os.path.dirname(os.path.abspath(config_path))
        return load_params(ref if os.path.isabs(ref) else os.path.join(base, ref))
    if "params" in config:
        return params_from_config(config["params"], "params")
    return params_from_config(
        {k: config[k] for k in ("omega", "s", "a", "b") if k in config}
    )


def _eps_list(config: dict) -> list[float]:
    raw = config.get("eps")
    if raw is None:
        raise ConfigError("eps", "missing required list of accuracies")
    if not isinstance(raw, list) or not raw:
        raise ConfigError("eps", "expected a nonempty list")
    return [_number(v, f"eps[{i}]", 0.0, 1.0) for i, v in enumerate(raw)]


# ---------------------------------------------------------------------------
# Subcommands.


def _cmd_analyze(args) -> int:
    config = _load_config(args.config)
    params = _params_of(config, args.config)
    report = analyze(params.a, params.b, params.s)
    table = report.to_dict()
    width = max(len(k) for k in table)
    lines = [f"{k.ljust(width)}  {table[k]}" for k in table]
    lines.append("")
    lines.append(json.dumps(table, sort_keys=True))
    _write_lines(args.out, lines)
    return _EXIT_UNKNOWN if report.has_unknowns else _EXIT_OK


def _cmd_complexity(args) -> int:
    config = _load_config(args.config)
    base = _params_of(config, args.config)
    eps_values = _eps_list(config)
    s_values = config.get("s_list", [base.s])
    if not isinstance(s_values, list):
        raise ConfigError("s_list", "expected a list of positive integers")
    spaces = []
    for i, v in enumerate(s_values):
        s = _number(v, f"s_list[{i}]", 0, integer=True)
        try:
            spaces.append(validate(KorobovParams(omega=base.omega, a=base.a, b=base.b, s=s)))
        except InvalidParameterError as exc:
            raise ConfigError(f"s_list[{i}]", str(exc)) from exc

    lines = ["s,eps,n_all,lemma_lower,lemma_upper"]
    for params in spaces:
        for eps in eps_values:
            x = exponent_budget(params.omega, eps)
            cells: list = [params.s, eps]
            try:
                lower, upper = count_product_bounds(params, x)
            except InvalidParameterError:
                lower = upper = None  # budget below a_1: bounds not defined
            if upper is not None and upper > args.cap_set:
                cells += ["cap_exceeded", _fmt(lower), _fmt(upper)]
            else:
                n_all = count_below(params, x)
                cells += [n_all, "n/a" if lower is None else _fmt(lower), "n/a" if upper is None else _fmt(upper)]
            lines.append(",".join(_fmt(c) for c in cells))
    _write_lines(args.out, lines)
    return _EXIT_OK


def _cmd_convergence(args) -> int:
    config = _load_config(args.config)
    params = _params_of(config, args.config)
    eps_values = sorted(_eps_list(config), reverse=True)

    # A grid over cap_n is a row (needed n, cap_exceeded x 3), and so is a
    # grid whose kept set is over cap_set (its n, cap_exceeded x 3); both
    # are kept out of the spectrum's size and both fits.  Kept sets and oracle
    # windows come off one walk; the oracles run in one bracket loop.
    picks = []  # (eps, accuracy mesh or its CapExceeded, kept threshold)
    for eps in eps_values:
        try:
            pick = mesh_for_accuracy(params, eps, cap_n=args.cap_n)
            picks.append((eps, pick, math.log(pick.M) / params.log_inv_omega))
        except CapExceeded as exc:
            picks.append((eps, exc, None))
    xs = [x for _, _, x in picks if x is not None]
    windows = _nested(params, xs + [default_truncation(x) for x in xs], args.cap_set)
    rows: list[tuple[int, float, float | None]] = []
    jobs = []
    for eps, pick, x in picks:
        if x is None or isinstance(windows[x], CapExceeded):
            rows.append((pick.needed if x is None else pick.grid.n, eps, None))
            continue
        alg = StdAlgorithm(params, pick.M, pick.grid, windows[x])
        rows.append((pick.grid.n, eps, error_upper_bound(alg)))
        jobs.append((alg, default_truncation(x)))
    oracles = iter(_oracle_many(jobs, args.cap_set, args.coset_cap, windows))

    ns = [n for n, _, bound in rows if bound is not None]
    e_all_of = iter(_nth_exponents(params, ns))
    lines = ["n,e_all,e_std_bound,e_std_exact"]
    pairs_all: list[tuple[float, float]] = []
    pairs_std: list[tuple[float, float]] = []
    for n, eps, bound in rows:
        if bound is None:
            lines.append(f"{n},cap_exceeded,cap_exceeded,cap_exceeded")
            continue
        e_all = math.sqrt(math.exp(next(e_all_of) * -params.log_inv_omega))
        oracle = next(oracles)
        exact = "trunc_overflow" if isinstance(oracle, CapExceeded) else oracle.value
        lines.append(",".join(_fmt(c) for c in (n, e_all, bound, exact)))
        pairs_all.append((n, e_all))
        if isinstance(exact, float) and 0.0 < exact < 1.0:
            pairs_std.append((n, exact))

    for label, pairs in (("e_all", pairs_all), ("e_std_exact", pairs_std)):
        pairs = [p for p in staircase_corners(sorted(pairs)) if p[1] < 1.0]
        try:
            fit = fit_exponential_rate(pairs)
            lines.append(f"#fit,{label},{_fmt(fit.slope)},{_fmt(fit.intercept)},{_fmt(fit.residual)}")
        except InvalidParameterError:
            lines.append(f"#fit,{label},n/a,n/a,n/a")
    _write_lines(args.out, lines)
    return _EXIT_OK


def _cmd_integrate(args) -> int:
    config = _load_config(args.config)
    params = _params_of(config, args.config)
    meshes = config.get("meshes")
    if not isinstance(meshes, list) or not meshes:
        raise ConfigError("meshes", "expected a nonempty list of mesh vectors")
    m_value = _number(config.get("M", 4.0), "M", 1.0)
    grids = []
    for i, mesh in enumerate(meshes):
        if not isinstance(mesh, list) or len(mesh) != params.s:
            raise ConfigError(f"meshes[{i}]", f"expected a list of {params.s} mesh sizes")
        sizes = [_number(m, f"meshes[{i}][{j}]", 0, integer=True) for j, m in enumerate(mesh)]
        grids.append(RegularGrid(tuple(sizes)))

    # the kept set's threshold, fitting or not; a config trunc_x must exceed it
    threshold = math.log(m_value) / params.log_inv_omega
    trunc = _number(config["trunc_x"], "trunc_x", threshold) if "trunc_x" in config else default_truncation(threshold)
    ints = [worst_case_int_error(params, GridRule(grid), trunc) for grid in grids]
    # The kept set depends on M alone, so every mesh shares one, a prefix
    # of the oracle's walk.  Over cap_set it blanks only the oracle cells:
    # the integration error and the lower bound do not read it.
    windows = _nested(params, [threshold, trunc], args.cap_set)
    if isinstance(windows[threshold], CapExceeded):
        oracles = [windows[threshold]] * len(grids)
    else:
        jobs = [(StdAlgorithm(params, m_value, grid, windows[threshold]), trunc) for grid in grids]
        oracles = _oracle_many(jobs, args.cap_set, args.coset_cap, windows)

    lines = ["mesh,n,int_error,int_slack,app_error,app_slack,lower_bound"]
    for grid, res, orc in zip(grids, ints, oracles):
        if isinstance(orc, CapExceeded):
            app_cells = ["cap_exceeded", "cap_exceeded"]
        else:
            app_cells = [orc.value, orc.slack]
        lower = small_n_lower_bound(params, grid.n)
        cells = [
            "x".join(str(m) for m in grid.mesh),
            grid.n,
            res.value,
            res.slack,
            *app_cells,
            "n/a" if lower is None else lower,
        ]
        lines.append(",".join(_fmt(c) for c in cells))
    _write_lines(args.out, lines)
    return _EXIT_OK


# ---------------------------------------------------------------------------
# Entry point.


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args leaves the parser as it found it.
    parser = argparse.ArgumentParser(prog="korobov", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    cap_n = ("--cap-n", DEFAULT_GRID_CAP, "grid size cap")
    cap_set = ("--cap-set", DEFAULT_SET_CAP, "index set cap")
    coset_cap = ("--coset-cap", DEFAULT_COSET_CAP, "largest dual-lattice coset the oracle accepts")
    # each subcommand takes the caps its handler reads, and no other
    for name, handler, caps in (
        ("analyze", _cmd_analyze, ()),
        ("complexity", _cmd_complexity, (cap_set,)),
        ("convergence", _cmd_convergence, (cap_n, cap_set, coset_cap)),
        ("integrate", _cmd_integrate, (cap_set, coset_cap)),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default="-", help="output path, '-' for stdout")
        for flag, default, text in caps:
            p.add_argument(flag, type=int, default=default, help=text)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("KOROBOV_LOG", "WARNING"))
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except KorobovError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
