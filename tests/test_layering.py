"""The worst-case oracle stays apart from grid and algorithm code.

``korobov/oracle.py`` reads an algorithm only through ``params``,
``threshold`` and ``grid.coset_keys``, so another grouping key, border or
reduction can reuse it.  It must import nothing from ``korobov.grids`` or
``korobov.sampling``, and ``sampling.py`` must define none of its names.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "korobov"
ORACLE_NAMES = {
    "OracleResult",
    "DEFAULT_COSET_CAP",
    "default_truncation",
    "exact_worst_case_error",
    "_top_sq_brackets",
    "_oracle_many",
    "_BRACKET_RTOL",
    "_RETRY_AT",
    "_MAX_PROBES",
    "_SETTLED",
    "_ORACLE_TOL",
}


def parse(name):
    return ast.parse((PACKAGE / name).read_text())


def imported_modules(tree):
    """Absolute names of every module an import statement reaches."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "korobov" if node.level else ""
            module = ".".join(part for part in (base, node.module) if part)
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_oracle_imports_no_grid_or_sampling_code():
    forbidden = ("korobov.grids", "korobov.sampling")
    reached = [m for m in imported_modules(parse("oracle.py")) if m.startswith(forbidden)]
    assert not reached


def test_sampling_defines_no_oracle_name():
    defined = set()
    for node in parse("sampling.py").body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {t.id for t in targets if isinstance(t, ast.Name)}
    assert not defined & ORACLE_NAMES
    assert "OracleResult" in {n.name for n in parse("oracle.py").body if isinstance(n, ast.ClassDef)}
