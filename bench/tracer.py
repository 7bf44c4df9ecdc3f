"""Span tracer that times calls into the package's public functions from outside.

The tracer replaces a function at every module attribute its callers
look up, records one span per call (name, start, end, parent, and an
optional observation of the arguments and result), and puts every
original back on ``restore``.  Spans stay in memory; ``layer_metrics``
turns one pass's spans into the per-layer metrics of the benchmark.

Per-site and per-hop helpers (``geometry.strip_depth``,
``geometry.in_half_plane``) are left unwrapped: a wrapper costs about as
much as one of those calls.
"""

import functools
import importlib
import inspect
from time import perf_counter


def _window_inside(fn):
    signature = inspect.signature(fn)

    def observe(args, kwargs, result):
        window = signature.bind(*args, **kwargs).arguments["window"]
        return int(sum(abs(e) <= window for e in result.eigenvalues))
    return observe


def _flow_grid(fn):
    signature = inspect.signature(fn)

    def observe(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return int(bound.arguments["n_t"])
    return observe


def _operator_size(fn):
    def observe(args, kwargs, result):
        return result.shape[0], result.matrix.nnz
    return observe


# (span name, observer factory); the span name is "<module>.<function>".
TRACED = (
    ("symbol.evaluate_bloch", None),
    ("symbol.partial_bloch", None),
    ("geometry.wedge_region", None),
    ("geometry.strip_region", None),
    ("assembly.assemble_corner", _operator_size),
    ("assembly.assemble_edge_strip", _operator_size),
    ("assembly.assemble_halfline", _operator_size),
    ("spectra.diagonalize_window", _window_inside),
    ("spectra.diagonalize", None),
    ("spectra.sharpen_degeneracies", None),
    ("spectra.mask_vector", None),
    ("spectra.all_weights", None),
    ("spectra.localization_weight", None),
    ("spectra.track_branches", None),
    ("spectra.crossings", None),
    ("invariants.corner_spectral_flow", _flow_grid),
    ("invariants.edge_gap_scan", None),
    ("invariants.compute_report", None),
    ("invariants.chern_number", None),
    ("invariants.winding_number", None),
    ("invariants.kernel_signature", None),
    ("invariants.weak_invariants", None),
    ("invariants.bulk_edge_pair", None),
    ("invariants.edge_spectral_flow", None),
    ("cli.main", None),
)

# Functions imported by name into another module: the wrapper must sit at
# that module's attribute too, or calls made from there go unseen.
ALIASES = (
    ("invariants", "evaluate_bloch", "symbol.evaluate_bloch"),
    ("invariants", "partial_bloch", "symbol.partial_bloch"),
)

PACKAGE = "cornerlab"


class Tracer:
    """Wraps the traced functions while installed; holds the spans of one pass.

    A span is ``[name, start, end, parent_index, observation]``; the
    parent is the innermost span open when the call began, or -1.
    """

    def __init__(self):
        self.spans = []
        self._open = []
        self._saved = []

    def _wrap(self, name, fn, observe):
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, open_spans[-1] if open_spans else -1, None]
            open_spans.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_spans.pop()
            if observe is not None:
                span[4] = observe(args, kwargs, result)
            return result
        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        targets = []
        for name, factory in TRACED:
            module_name, attr = name.split(".")
            fn = getattr(importlib.import_module(f"{PACKAGE}.{module_name}"), attr)
            wrappers[name] = self._wrap(name, fn, factory(fn) if factory else None)
            targets.append((module_name, attr, name))
        for module_name, attr, name in targets + list(ALIASES):
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrappers[name])

    def restore(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)


def _has_ancestor(spans, index, name):
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def metric_names():
    """Every per-layer metric ``layer_metrics`` reports, in a fixed order."""
    names = []
    for name, _ in TRACED:
        names += [f"{name}.calls", f"{name}.self_s"]
    return names + [
        "assembly.dof_max",
        "assembly.nnz_max",
        "spectra.diagonalize_window.empty_share",
        "spectra.diagonalize_window.pairs",
        "spectra.diagonalize_window.dense_fallbacks",
        "invariants.corner_spectral_flow.refine_slices",
        "invariants.edge_gap_scan.strips",
        "trace.unattributed_s",
    ]


def layer_metrics(spans, wall):
    """Per-layer metrics of one traced pass that took ``wall`` seconds.

    ``self_s`` is a span's duration minus the durations of its direct
    children, summed over the calls of one function.
    """
    out = dict.fromkeys(metric_names(), 0)
    child_time = [0.0] * len(spans)
    top_time = 0.0
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
        else:
            top_time += end - start
    window_calls = empty = pairs = fallbacks = corners = grid = strips = 0
    for i, (name, start, end, parent, seen) in enumerate(spans):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += end - start - child_time[i]
        if name.startswith("assembly.") and seen is not None:
            out["assembly.dof_max"] = max(out["assembly.dof_max"], seen[0])
            out["assembly.nnz_max"] = max(out["assembly.nnz_max"], seen[1])
        if name == "spectra.diagonalize_window" and seen is not None:
            window_calls += 1
            empty += seen == 0
            pairs += seen
        elif name == "spectra.diagonalize" and parent >= 0 \
                and spans[parent][0] == "spectra.diagonalize_window":
            fallbacks += 1
        elif name == "invariants.corner_spectral_flow" and seen is not None:
            grid += seen
        elif name == "assembly.assemble_corner" \
                and _has_ancestor(spans, i, "invariants.corner_spectral_flow"):
            corners += 1
        elif name == "assembly.assemble_edge_strip" \
                and _has_ancestor(spans, i, "invariants.edge_gap_scan"):
            strips += 1
    out["spectra.diagonalize_window.empty_share"] = empty / window_calls if window_calls else 0.0
    out["spectra.diagonalize_window.pairs"] = pairs
    out["spectra.diagonalize_window.dense_fallbacks"] = fallbacks
    out["invariants.corner_spectral_flow.refine_slices"] = corners - grid
    out["invariants.edge_gap_scan.strips"] = strips
    out["trace.unattributed_s"] = wall - top_time
    return out
