"""The package names and arguments that the benchmark relies on.

The tracer wraps package functions by name and reads two arguments by
name, so renaming or deleting one breaks ``bench/run.py --trace 1``; the
workloads call package functions with the arguments they take today.
Both bench modules are executed from their source, leaving ``bench/`` as
it is.
"""

import importlib
import inspect
import json
import types
from pathlib import Path

import pytest

import cornerlab
from cornerlab import invariants, spectra

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = [w["name"] for w in
                  json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _bench_module(name):
    path = ROOT / "bench" / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def _resolve(package, name):
    module_name, attr = name.split(".")
    return getattr(importlib.import_module(f"{package}.{module_name}"), attr, None)


def test_traced_names_resolve_to_package_attributes():
    tracer = _bench_module("tracer")
    assert tracer.PACKAGE == cornerlab.__name__
    for name, _ in tracer.TRACED:
        assert callable(_resolve(tracer.PACKAGE, name)), name
    for module_name, attr, target in tracer.ALIASES:
        alias = _resolve(tracer.PACKAGE, f"{module_name}.{attr}")
        assert alias is not None and alias is _resolve(tracer.PACKAGE, target), attr


def test_observed_arguments_still_bind():
    window = inspect.signature(spectra.diagonalize_window)
    assert window.bind(None, 0.3).arguments["window"] == 0.3
    assert window.bind(None, window=0.3, k=24).arguments["window"] == 0.3
    flow = inspect.signature(invariants.corner_spectral_flow).bind(None, None, 12)
    flow.apply_defaults()
    assert flow.arguments["n_t"] == 64


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_passes_its_checks_at_tiny_sizes(name, tmp_path):
    """One untimed pass of each declared workload, at the self-test's sizes and seed."""
    workloads = _bench_module("workloads")
    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(5, workloads.TINY[name], str(tmp_path))
    checks = workload.check(inputs, workload.run(inputs))
    assert checks and all(checks.values()), checks
