"""Layer spans recorded from outside the package.

``Tracer.install`` replaces the public functions of each ``korobov``
module, and every alias another ``korobov`` module imported, with a
wrapper that records a span (name, start, end, parent) around the call.
Module-level aliases are patched too because the package calls most of
its functions through names imported into the calling module; patching
only the defining module would miss those calls and break the nesting.
``uninstall`` restores the originals, so an untraced pass runs the
unmodified functions at no cost.

Spans are kept in flat arrays and only summarised after the traced pass:
a span's self time is its duration minus the time covered by its direct
children, and a name's busy time is the total duration of its spans that
have no ancestor of the same name.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

from korobov.errors import CapExceeded


def _grid_points(args, kwargs) -> int:
    return int(kwargs.get("grid", args[0]).n)


def _on_transform(tracer, args, kwargs, result):
    n = _grid_points(args, kwargs)
    tracer.add("grids.points", n)
    hs = kwargs.get("hs", args[2] if len(args) > 2 else ())
    tracer.add("grids.phase_terms", n * len(hs))


def _on_sample_mean(tracer, args, kwargs, result):
    tracer.add("grids.points", _grid_points(args, kwargs))


def _on_eval(tracer, args, kwargs, result):
    f = kwargs.get("f", args[0])
    tracer.add("space.eval.terms", len(result) * len(f.coefficients))


def _on_enumerate(tracer, args, kwargs, result):
    tracer.add("index_set.enumerate.members", result.count)
    if tracer.parent_name() == "sampling.oracle":
        tracer.add("sampling.oracle.window", result.count)


def _on_dual_enumerate(tracer, args, kwargs, result):
    tracer.add("index_set.enumerate.members", len(result))
    tracer.add("integration.dual_points", sum(1 for k in result if any(k)))


def _on_top(tracer, args, kwargs, result):
    tracer.add("spectra.top.k", len(result))


def _on_oracle(tracer, args, kwargs, result):
    tracer.add("sampling.oracle.cosets", result.coset_count)
    tracer.peak("sampling.oracle.largest_coset", result.largest_coset)


# (span name, [(module, attribute), ...], on_result).  The first module
# defines the function; the others hold aliases of it.
LAYERS = [
    ("cli", [("korobov.cli", "main")], None),
    ("index_set.count", [
        ("korobov.index_set", "count_below"),
        ("korobov.spectra", "count_below"),
        ("korobov.cli", "count_below"),
        ("korobov", "count_below"),
        ("korobov.integration", "_count"),
    ], None),
    ("index_set.enumerate", [
        ("korobov.index_set", "enumerate_below"),
        ("korobov.sampling", "enumerate_below"),
        ("korobov", "enumerate_below"),
    ], _on_enumerate),
    ("index_set.enumerate", [("korobov.integration", "_enumerate")], _on_dual_enumerate),
    ("index_set.bounds", [
        ("korobov.index_set", "count_product_bounds"),
        ("korobov.cli", "count_product_bounds"),
        ("korobov", "count_product_bounds"),
    ], None),
    ("spectra.top", [
        ("korobov.spectra", "top_eigenvalues"),
        ("korobov.cli", "top_eigenvalues"),
        ("korobov", "top_eigenvalues"),
    ], _on_top),
    ("spectra.complexity", [
        ("korobov.spectra", "information_complexity"),
        ("korobov", "information_complexity"),
    ], None),
    ("spectra.truncate", [
        ("korobov.spectra", "truncate_to_accuracy"),
        ("korobov", "truncate_to_accuracy"),
    ], None),
    ("series", [
        ("korobov.grids", "dual_weight_sum"),
        ("korobov.sampling", "dual_weight_sum"),
        ("korobov", "dual_weight_sum"),
        ("korobov.sampling", "error_upper_bound"),
        ("korobov.cli", "error_upper_bound"),
        ("korobov", "error_upper_bound"),
        ("korobov.sampling", "gen_error_bound"),
        ("korobov", "gen_error_bound"),
        ("korobov.space", "kernel_eval"),
        ("korobov", "kernel_eval"),
        ("korobov.space", "kernel_diagonal"),
        ("korobov.spectra", "eigenvalue_tail_bound"),
        ("korobov", "eigenvalue_tail_bound"),
    ], None),
    ("grids.transform", [
        ("korobov.grids", "aliased_coefficients"),
        ("korobov.sampling", "aliased_coefficients"),
    ], _on_transform),
    ("grids.transform", [
        ("korobov.grids", "sample_mean"),
        ("korobov.integration", "sample_mean"),
    ], _on_sample_mean),
    ("space.eval", [
        ("korobov.space", "evaluate_many"),
        ("korobov.grids", "evaluate_many"),
    ], _on_eval),
    ("sampling.build", [
        ("korobov.sampling", "build_std_algorithm"),
        ("korobov.cli", "build_std_algorithm"),
        ("korobov", "build_std_algorithm"),
        ("korobov.sampling", "accuracy_algorithm"),
        ("korobov", "accuracy_algorithm"),
        ("korobov.sampling", "threshold_algorithm"),
        ("korobov", "threshold_algorithm"),
        ("korobov.sampling", "mesh_for_accuracy"),
        ("korobov.cli", "mesh_for_accuracy"),
        ("korobov", "mesh_for_accuracy"),
    ], None),
    ("sampling.apply", [
        ("korobov.sampling", "apply_algorithm"),
        ("korobov", "apply_algorithm"),
    ], None),
    ("sampling.oracle", [
        ("korobov.sampling", "exact_worst_case_error"),
        ("korobov.cli", "exact_worst_case_error"),
        ("korobov", "exact_worst_case_error"),
    ], _on_oracle),
    ("integration.wce", [
        ("korobov.integration", "worst_case_int_error"),
        ("korobov.cli", "worst_case_int_error"),
        ("korobov", "worst_case_int_error"),
    ], None),
    ("integration.integrate", [
        ("korobov.integration", "integrate"),
        ("korobov", "integrate"),
    ], None),
    ("tractability.analyze", [
        ("korobov.tractability", "analyze"),
        ("korobov.cli", "analyze"),
        ("korobov", "analyze"),
    ], None),
    ("tractability.fit", [
        ("korobov.tractability", "fit_exponential_rate"),
        ("korobov.cli", "fit_exponential_rate"),
        ("korobov", "fit_exponential_rate"),
    ], None),
]

# IndexSet membership is a method, patched on the class.
CONTAINS = "index_set.contains"


class Tracer:
    """Span recorder for one traced pass in one thread."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self._saved: list[tuple[object, str, object]] = []
        # off while the harness checks outputs between traced tasks
        self.enabled = True

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    def parent_name(self) -> str | None:
        """Name of the span enclosing the one that just closed."""
        if not self._stack:
            return None
        return self.names[self.name[self._stack[-1]]]

    def _wrap(self, fn, name: str, on_result):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except CapExceeded as exc:
                # count each error once, however many spans it unwinds
                if not getattr(exc, "counted_by_tracer", False):
                    exc.counted_by_tracer = True
                    tracer.add("errors.cap_hits", 1)
                raise
            finally:
                tracer._close(idx)
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        wrapped: dict[tuple[int, str], object] = {}
        for name, sites, on_result in LAYERS:
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                key = (id(original), name)
                if key not in wrapped:
                    wrapped[key] = self._wrap(original, name, on_result)
                self._saved.append((module, attr, original))
                setattr(module, attr, wrapped[key])
        index_set = importlib.import_module("korobov.index_set")
        original = index_set.IndexSet.__contains__
        self._saved.append((index_set.IndexSet, "__contains__", original))
        index_set.IndexSet.__contains__ = self._wrap(original, CONTAINS, None)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- summary -----------------------------------------------------------

    def summary(self, wall: float, passes: int) -> dict[str, float]:
        """Per-name busy, self time and calls, plus coverage of ``wall``
        by top-level spans; times and counts are divided by ``passes``."""
        n = len(self.name)
        child_time = [0.0] * n
        top_level = 0.0
        for i in range(n):
            p = self.parent[i]
            d = self.end[i] - self.start[i]
            if p < 0:
                top_level += d
            else:
                child_time[p] += d
        busy: dict[str, float] = {}
        self_time: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i in range(n):
            nid = self.name[i]
            name = self.names[nid]
            d = self.end[i] - self.start[i]
            self_time[name] = self_time.get(name, 0.0) + d - child_time[i]
            p = self.parent[i]
            nested = False
            while p >= 0:
                if self.name[p] == nid:
                    nested = True
                    break
                p = self.parent[p]
            if not nested:
                busy[name] = busy.get(name, 0.0) + d
                calls[name] = calls.get(name, 0) + 1
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}.busy_s"] = busy.get(name, 0.0) / passes
            out[f"{name}.self_s"] = self_time.get(name, 0.0) / passes
            out[f"{name}.calls"] = calls.get(name, 0) / passes
        for key, value in self.counters.items():
            out[key] = value if key.endswith("largest_coset") else value / passes
        out["trace.spans"] = n / passes
        out["trace.coverage"] = top_level / wall if wall > 0 else 0.0
        return out

    def spans(self) -> dict:
        """The recorded spans as columns, times relative to the first start."""
        t0 = self.start[0] if len(self.start) else 0.0
        return {
            "names": self.names,
            "name": list(self.name),
            "parent": list(self.parent),
            "start": [round(t - t0, 9) for t in self.start],
            "end": [round(t - t0, 9) for t in self.end],
        }
