"""Every package name the benchmark's tracer wraps still resolves.

``bench/tracer.py`` looks its functions up by (module, attribute) with
``getattr`` and no default, so a rename would otherwise surface as an
``AttributeError`` in the middle of a traced benchmark run.  The tracer
is loaded read-only from its file; nothing under ``bench/`` is changed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(not TRACER.exists(), reason="benchmark tracer not present")
def test_every_traced_name_resolves():
    tracer = load_tracer()
    sites = [site for _, layer_sites, _ in tracer.LAYERS for site in layer_sites]
    assert sites
    missing = [
        f"{module}.{attr}"
        for module, attr in sites
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing, f"traced names no longer resolve: {missing}"
    # membership is patched on the class
    from korobov.index_set import IndexSet

    assert callable(IndexSet.__contains__)
