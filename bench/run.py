"""Benchmark runner for cornerlab: time to certified integers, per workload.

Run one workload from the root of a source checkout:

    python3 bench/run.py --workload report --seed 3 --seconds 20 --trace 0

The runner imports the package from ``src/`` of the checkout, builds the
workload's inputs from the seed, then repeats passes for ``--seconds``
seconds and checks every output of every pass.  Its last line of output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``:

- ``--trace 0``: the end-to-end metrics of ``BENCHMARK.json``, each the
  median over the passes that produced correct outputs (``run_s``,
  ``cpu_s``), over the set-up repeats (``setup_s``), or for the whole
  process (``peak_rss_mb``);
- ``--trace 1``: the per-layer metrics, from passes run with the tracer
  installed, alternated with untraced passes that give
  ``trace.overhead_s``.

``attempted`` and ``failed`` count output checks; their ratio is the
failed share.  ``--out FILE`` also appends the full record (per-pass
times, produced outputs, environment and, for ``--trace 1``, the spans of
the last traced pass as ``[name, start, end, parent]``) as one JSON
line; ``compare.py`` reads those files.

Set-up is the package import plus input generation.  It is timed once in
this process and ``SETUP_REPEATS - 1`` more times in fresh interpreters
(``--setup-only``), and ``setup_s`` is the median.  BLAS runs with one
thread (``BLAS_THREADS``) in every process.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
WORKLOADS = ("report", "edge_scan", "bulk_invariants", "corner_slices")
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _pin_blas():
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)


def _import_workloads():
    """Import the package from this checkout's ``src/`` and the workload module."""
    package = SRC / "cornerlab" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"bench: no package source at {package}; run from a full checkout")
    sys.path[:0] = [p for p in (str(SRC), str(BENCH)) if p not in sys.path]
    import cornerlab
    if Path(cornerlab.__file__).resolve() != package.resolve():
        raise SystemExit(f"bench: imported cornerlab from {cornerlab.__file__}, not {package}")
    import workloads
    return workloads


def _setup(name, seed, sizes, workdir):
    """Import and build inputs; return (workload module, inputs, seconds)."""
    start = time.perf_counter()
    workloads = _import_workloads()
    sizes = sizes or workloads.FULL
    inputs = workloads.WORKLOADS[name].setup(seed, sizes[name], workdir)
    return workloads, inputs, time.perf_counter() - start


def _setup_in_child(name, seed):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _environment(seed):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "commit": _git_commit(),
    }


def _git_commit():
    """Commit of the checkout read from ``.git``, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Passes:
    """Runs and checks passes of one workload; keeps the times and check counts."""

    def __init__(self, workload, inputs):
        self.workload = workload
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.outputs = None

    def run(self):
        """One pass: (wall_s, cpu_s, correct)."""
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            outputs = self.workload.run(self.inputs)
        except Exception as exc:  # a raising pass is a failed pass, not a crash
            outputs = None
            self.errors.append(f"{type(exc).__name__}: {exc}")
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        checks = self.workload.check(self.inputs, outputs or {})
        misses = sum(not ok for ok in checks.values())
        self.attempted += len(checks)
        self.failed += misses
        if outputs is not None:
            self.outputs = outputs
        if misses:
            print(f"bench: failed checks {sorted(k for k, ok in checks.items() if not ok)}",
                  file=sys.stderr)
        return wall, cpu, misses == 0


def _median_ok(times, oks):
    good = [t for t, ok in zip(times, oks) if ok]
    return statistics.median(good or times)


def measure(name, seed, seconds, trace, sizes=None, setup_repeats=SETUP_REPEATS):
    """Run one workload for ``seconds`` and return the full result record."""
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        workloads, inputs, first_setup = _setup(name, seed, sizes, workdir)
        setup_times = [first_setup]
        setup_times += [_setup_in_child(name, seed) for _ in range(setup_repeats - 1)]
        passes = Passes(workloads.WORKLOADS[name], inputs)
        record = {"workload": name, "seed": seed, "trace": trace, "seconds": seconds}
        if trace:
            metrics, timing = _traced(passes, seconds)
        else:
            metrics, timing = _untraced(passes, seconds)
            metrics["setup_s"] = statistics.median(setup_times)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record.update({
        "correct": passes.failed == 0 and passes.attempted > 0,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": metrics,
        "passes": timing,
        "setup_times": setup_times,
        "outputs": passes.outputs,
        "errors": passes.errors,
        "environment": _environment(seed),
    })
    return record


def _untraced(passes, seconds):
    walls, cpus, oks = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, cpu, ok = passes.run()
        walls.append(wall)
        cpus.append(cpu)
        oks.append(ok)
    metrics = {"run_s": _median_ok(walls, oks), "cpu_s": _median_ok(cpus, oks)}
    return metrics, {"wall_s": walls, "cpu_s": cpus, "correct": oks}


def _traced(passes, seconds):
    from tracer import Tracer, layer_metrics, metric_names
    plain, traced, per_pass, oks = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        if len(plain) <= len(traced):
            wall, _, ok = passes.run()
            plain.append(wall)
        else:
            tracer = Tracer()
            tracer.install()
            try:
                wall, _, ok = passes.run()
            finally:
                tracer.restore()
            traced.append(wall)
            per_pass.append(layer_metrics(tracer.spans, wall))
            spans = tracer.spans
        oks.append(ok)
    metrics = {key: statistics.median(row[key] for row in per_pass) for key in metric_names()}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    origin = spans[0][1] if spans else 0.0
    last = [[name, start - origin, end - origin, parent] for name, start, end, parent, _ in spans]
    return metrics, {"untraced_wall_s": plain, "traced_wall_s": traced, "correct": oks,
                     "spans_of_last_traced_pass": last}


def _result_line(record, spec):
    """The final JSON line: only the metrics BENCHMARK.json lists, with their units."""
    listed = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    metrics = {}
    for entry in listed:
        value = record["metrics"][entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="keep starting passes until this many seconds have gone by")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the full result record to this JSON-lines file")
    p.add_argument("--setup-only", action="store_true", dest="setup_only",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def main(argv=None):
    args = _parse_args(argv)
    _pin_blas()
    if args.setup_only:
        WORK.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORK) as workdir:
            _, _, seconds = _setup(args.workload, args.seed, None, workdir)
        print(json.dumps({"setup_s": seconds}))
        return 0
    spec = _benchmark_spec()
    record = measure(args.workload, args.seed, args.seconds, args.trace)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(_result_line(record, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
