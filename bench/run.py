"""Benchmark for the korobov package.

Usage, from the repository root::

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

One process runs one workload as a closed loop with a single client: a
pool of tasks is generated from the seed, then passes over the pool are
timed until at least ``--seconds`` of task time and 100 tasks have
accumulated.  With ``--trace 0``, times are reported in seconds of a
reference machine: each is scaled by a reference kernel timed next to it
(bench/reference.py).  Every task's output is checked after it ran,
outside the timed region.  The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` the end-to-end metrics of BENCHMARK.json, with ``--trace 1``
its per-layer metrics from a traced pass.  See bench/README.md for what
each workload and metric means.
"""

import os

# One BLAS/OpenMP thread: the benchmark measures one client on one core,
# and threaded BLAS on a shared two-core machine produces rare large
# spikes in the dense SVD.  Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib
import json
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import reference as speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("certify", "sample", "count")
SETUP_REPEATS = 5
REFERENCE_REPEATS = 5
MIN_TASKS = 100


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing the package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import korobov"], env=env, check=True, timeout=120)
    return time.perf_counter() - t0


class Pass:
    """Per-task durations and verdicts of one timed pass."""

    def __init__(self):
        self.durations: list[float] = []
        self.references: list[float] = []
        self.failed = 0
        self.unexpected = 0
        self.known = 0
        self.messages: list[str] = []
        self.cycles = 0

    @property
    def busy(self) -> float:
        return sum(self.durations)

    def extend(self, other: "Pass") -> None:
        self.durations += other.durations
        self.references += other.references
        self.failed += other.failed
        self.unexpected += other.unexpected
        self.known += other.known
        self.messages += other.messages[: 5 - len(self.messages)]
        self.cycles += other.cycles


def run_task(task):
    t0 = time.perf_counter()
    try:
        out, error = task.run(), None
    except Exception as exc:  # a raising task is a failed task; keep measuring
        out, error = None, exc
    return time.perf_counter() - t0, out, error


class Judge:
    """Checks outputs and tallies verdicts.

    A task's output is checked in full the first time it is seen; a later
    output with the same pickled bytes gets the verdict already reached
    for those bytes, so repeated passes do not repeat the reference
    computations.
    """

    def __init__(self, known_defect):
        self.known_defect = known_defect
        self.seen: dict[tuple[int, bytes], Exception | None] = {}

    def verdict(self, task, out):
        try:
            key = (id(task), hashlib.blake2b(pickle.dumps(out, protocol=5)).digest())
        except (pickle.PicklingError, TypeError, AttributeError):
            key = None
        if key is not None and key in self.seen:
            return self.seen[key]
        try:
            task.check(out)
            error = None
        except Exception as exc:  # CheckFailed, or a check tripping on malformed output
            error = exc
        if key is not None:
            self.seen[key] = error
        return error

    def __call__(self, task, out, error, record: Pass) -> None:
        if error is None:
            error = self.verdict(task, out)
            if error is None:
                return
        record.failed += 1
        if isinstance(error, self.known_defect):
            record.known += 1
        else:
            record.unexpected += 1
        if len(record.messages) < 5:
            detail = "".join(traceback.format_exception_only(type(error), error)).strip()
            record.messages.append(f"{task.kind}: {detail}")


def timed_pass(tasks, seconds, min_tasks, judge, tracer=None, cycles=None, reference=None) -> Pass:
    """Whole passes over the pool until ``seconds`` of task time and
    ``min_tasks`` tasks have run, or exactly ``cycles`` passes.  With a
    ``reference``, it is timed after every task, and task time counts in
    reference seconds, so a slow spell of the machine does not change how
    many passes run."""
    record = Pass()
    spent = 0.0
    while True:
        if cycles is not None and record.cycles >= cycles:
            break
        if cycles is None and spent >= seconds and len(record.durations) >= min_tasks:
            break
        for task in tasks:
            if tracer is not None:
                tracer.enabled = True
            duration, out, error = run_task(task)
            if tracer is not None:
                tracer.enabled = False
            record.durations.append(duration)
            judge(task, out, error, record)
            if reference is None:
                spent += duration
            else:
                record.references.append(reference.mean_seconds(speed.SHARE * duration))
                spent += duration * reference.nominal_s / record.references[-1]
        record.cycles += 1
    return record


def setup(workload_module, seed: int, workdir: Path):
    """Import, input generation and warm-up; returns (seconds, tasks)."""
    import numpy as np

    t_import = import_seconds()
    t0 = time.perf_counter()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    rng = np.random.default_rng([seed % 2**63, WORKLOADS.index(workload_module.__name__)])
    tasks = workload_module.build(rng, str(workdir))
    # warm-up: the first (smallest) task of each kind once, output discarded
    first = {}
    for task in tasks:
        first.setdefault(task.kind, task)
    for task in first.values():
        run_task(task)
    # A fixed shuffle spreads each block of equal tasks over the pass, so a
    # slow spell of the shared machine hits few of them at once.
    order = np.random.default_rng(0).permutation(len(tasks))
    return t_import + time.perf_counter() - t0, [tasks[i] for i in order]


def quantile(values, q):
    """q-th quantile (0 < q < 1) by statistics.quantiles with 100 cut points."""
    return statistics.quantiles(values, n=100)[int(round(q * 100)) - 1]


def timings(d, pool: int) -> dict:
    # Throughput from each task's median over the passes, so a slow spell
    # of the shared machine during one pass does not move it.
    per_task = [statistics.median(d[i::pool]) for i in range(pool)]
    return {
        "tasks_per_s": pool / sum(per_task),
        "task_p50_ms": 1e3 * statistics.median(d),
        "task_p90_ms": 1e3 * quantile(d, 0.90),
    }


def end_to_end(record: Pass, setup_times, pool: int, nominal_s: float) -> dict:
    return {
        "setup_s": statistics.median(setup_times),
        **timings(speed.scale(record.durations, record.references, nominal_s), pool),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - record.failed / len(record.durations),
    }


def traced_metrics(tasks, seconds, judge, workload, seed):
    """Per-layer numbers.  Untraced and traced passes alternate until the
    untraced ones reach half of ``seconds``, so drift of the shared
    machine falls on both sides of the overhead estimate.  Values are per
    pass over the pool."""
    from tracer import Tracer

    plain, traced = Pass(), Pass()
    tracer = Tracer()
    while plain.cycles == 0 or plain.busy < seconds / 2.0:
        plain.extend(timed_pass(tasks, 0.0, 1, judge, cycles=1))
        tracer.install()
        try:
            traced.extend(timed_pass(tasks, 0.0, 1, judge, tracer=tracer, cycles=1))
        finally:
            tracer.uninstall()
    passes = traced.cycles
    layers = tracer.summary(traced.busy, passes)
    layers["trace.wall_s"] = traced.busy / passes
    layers["trace.overhead_s"] = (traced.busy - plain.busy) / passes
    layers["trace.overhead_frac"] = (traced.busy - plain.busy) / plain.busy
    layers["trace.tasks"] = len(tasks)
    layers.setdefault("errors.cap_hits", 0)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{workload}-{seed}.json", "w", encoding="utf-8") as fh:
        json.dump(tracer.spans(), fh)
    with open(OUT / f"layers-{workload}-{seed}.json", "w", encoding="utf-8") as fh:
        json.dump(layers, fh, indent=1, sort_keys=True)
    plain.extend(traced)
    return plain, layers


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "korobov" / "__init__.py").is_file():
        print(f"error: no korobov package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    workload = importlib.import_module(args.workload)
    from common import KnownDefect

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        # set-up is interpreter work; its reference is timed before and after each set-up
        setup_ref = speed.interpreter()
        refs = [setup_ref.median_seconds(REFERENCE_REPEATS)]
        raw_setup, setup_times = [], []
        for _ in range(SETUP_REPEATS):
            seconds, tasks = setup(workload, args.seed, workdir)
            refs.append(setup_ref.median_seconds(REFERENCE_REPEATS))
            raw_setup.append(seconds)
            setup_times.append(seconds * setup_ref.nominal_s / statistics.mean(refs[-2:]))
        judge = Judge(KnownDefect)
        if args.trace:
            record, values = traced_metrics(tasks, args.seconds, judge, args.workload, args.seed)
            wanted = spec["per_layer"]
        else:
            task_ref = workload.REFERENCE()
            record = timed_pass(tasks, args.seconds, MIN_TASKS, judge, reference=task_ref)
            values = end_to_end(record, setup_times, len(tasks), task_ref.nominal_s)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(
        f"{args.workload}: {len(record.durations)} tasks in {record.cycles} passes over a pool of "
        f"{len(tasks)}; {record.failed} failed ({record.known} known defect); "
        f"measured set-up runs {[round(t, 3) for t in raw_setup]} s",
        file=sys.stderr,
    )
    if record.references:
        measured = {k: round(v, 4) for k, v in timings(record.durations, len(tasks)).items()}
        print(
            f"  unscaled: {measured}, task time {record.busy:.3f} s; kernel {task_ref.name} "
            f"median {1e3 * statistics.median(record.references):.3f} ms (nominal {1e3 * task_ref.nominal_s:.3f}), "
            f"set-up kernel median {1e3 * statistics.median(refs):.3f} ms (nominal {1e3 * setup_ref.nominal_s:.3f})",
            file=sys.stderr,
        )
    for message in record.messages:
        print(f"  failure: {message}", file=sys.stderr)
    result = {
        "correct": record.unexpected == 0,
        "attempted": len(record.durations),
        "failed": record.failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
