"""The package names and arguments that ``bench/tracer.py`` relies on.

The tracer wraps package functions by name and reads two arguments by
name, so renaming or deleting one breaks ``bench/run.py --trace 1``.
The tracer module is executed from its source, leaving ``bench/`` as it is.
"""

import importlib
import inspect
import types
from pathlib import Path

import cornerlab
from cornerlab import invariants, spectra

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    module = types.ModuleType("bench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def _resolve(package, name):
    module_name, attr = name.split(".")
    return getattr(importlib.import_module(f"{package}.{module_name}"), attr, None)


def test_traced_names_resolve_to_package_attributes():
    tracer = _tracer()
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
