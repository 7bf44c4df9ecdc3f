"""The four benchmark workloads: inputs from a seed, one timed pass, output checks.

Every workload draws its inputs from the seed ``s`` alone:

- ``h1_s = perturb_onsite(h1_example, 0.1, s)``;
- ``P_s = product_hamiltonian(h1_s, h2_example, grading)``, which keeps
  the flat bands of h2, so its spectra have exactly degenerate clusters;
- ``Q_s = perturb_onsite(product_example, 0.1, s)``, a generic family
  with no chiral symmetry.

The perturbation is small next to the bulk and edge gaps (about 1), so
the expected integers hold for every seed.

A workload is a ``setup`` that builds the inputs, a ``run`` that makes
one pass through the package and returns its outputs as plain JSON
values, and a ``check`` that maps those outputs to named pass/fail
results.  A check is given ``{}`` for a pass that raised, and then fails
every result it names.  Package functions are always looked up on their
module at call time, so that the tracer's wrappers see every call.
"""

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from cornerlab import assembly, cli, geometry, invariants, spectra, symbol

PERTURB_NORM = 0.1
EDGE_GAP_MIN = 0.8
CORNER_WEIGHT_MIN = 0.6
CORNER_AGREE_TOL = 1e-6
ANGLE_RANGE = 0.3

# Sizes of one pass.  FULL is what the benchmark measures: passes of one to
# three seconds, so that one run holds enough of them for a steady median on
# a shared machine whose pass times swing by about 15% (the acceptance-test
# sizes take about a minute per report pass).  TINY runs the same code paths
# in a few seconds for the harness self-test.  L=12 still takes the sparse
# window solver: dof 676 is above the dense cutoff.
FULL = {
    "report": {"L": 12, "W": 16, "t_grid": 16, "k_grid": 4},
    "edge_scan": {"W": 40, "grid": (6, 6)},
    "bulk_invariants": {"chern_grid": 40, "winding_grid": 256, "kernel_W": 40,
                        "weak_grid": 20, "flow_W": 40, "flow_t_grid": 64},
    "corner_slices": {"angles": 2, "sizes": (16, 32), "window_W": 16,
                      "window_grid": (8, 8)},
}
TINY = {
    "report": {"L": 12, "W": 12, "t_grid": 16, "k_grid": 4},
    "edge_scan": {"W": 12, "grid": (4, 4)},
    "bulk_invariants": {"chern_grid": 16, "winding_grid": 64, "kernel_W": 12,
                        "weak_grid": 8, "flow_W": 12, "flow_t_grid": 16},
    "corner_slices": {"angles": 1, "sizes": (12, 24), "window_W": 12,
                      "window_grid": (4, 4)},
}


@dataclass(frozen=True)
class Workload:
    setup: object
    run: object
    check: object


def _slope_pair():
    return geometry.SlopePair(geometry.Slope.rational(0, 1), geometry.Slope.plus_inf())


def _factors(seed):
    models = symbol.builtin_models()
    h1 = symbol.perturb_onsite(models["h1_example"].symbol, PERTURB_NORM, seed)
    h2 = models["h2_example"]
    return models, h1, h2.symbol, h2.grading


def _product(seed):
    _, h1, h2, grading = _factors(seed)
    return symbol.product_hamiltonian(h1, h2, grading)


# ---------------------------------------------------------------------------
# report: the whole command-line pipeline on a generated model file

def setup_report(seed, size, workdir):
    models = symbol.builtin_models()
    q = symbol.perturb_onsite(models["product_example"].symbol, PERTURB_NORM, seed)
    model_file = os.path.join(workdir, "model.json")
    symbol.save_model(q, model_file)
    out_dir = os.path.join(workdir, "report")
    argv = ["report", "--model", model_file, "--h1", "h1_example", "--h2", "h2_example",
            "--L", str(size["L"]), "--W", str(size["W"]),
            "--t-grid", str(size["t_grid"]), "--k-grid", str(size["k_grid"]),
            "--out", out_dir]
    return {"argv": argv, "report_file": os.path.join(out_dir, "report.json")}


def run_report(inputs):
    with contextlib.suppress(FileNotFoundError):
        os.remove(inputs["report_file"])
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(inputs["argv"])
    out = {"exit_code": code}
    if code == 0:
        with open(inputs["report_file"]) as fh:
            report = json.load(fh)["report"]
        for key in ("corner_sf", "chern_2dA", "winding_1dAIII", "kernel_signature",
                    "weak", "bulk_edge_pair", "min_edge_gap_alpha", "min_edge_gap_beta"):
            out[key] = report[key]
    return out


def check_report(inputs, out):
    chern, winding = out.get("chern_2dA"), out.get("winding_1dAIII")
    return {
        "exit_code": out.get("exit_code") == 0,
        "corner_sf": out.get("corner_sf") == 1,
        "chern_2dA": chern == -1,
        "winding_1dAIII": winding == -1,
        "product_formula": chern is not None and winding is not None
        and out.get("corner_sf") == chern * winding,
        "weak": out.get("weak") == [0, 0, 0],
        "kernel_signature": out.get("kernel_signature") == -1,
        "bulk_edge_pair": out.get("bulk_edge_pair") == [2, 1],
        "edge_gap_alpha": out.get("min_edge_gap_alpha", 0.0) >= EDGE_GAP_MIN,
        "edge_gap_beta": out.get("min_edge_gap_beta", 0.0) >= EDGE_GAP_MIN,
    }


# ---------------------------------------------------------------------------
# edge_scan: both edge compressions over a (k_edge, t) grid, dense only

def setup_edge_scan(seed, size, workdir):
    return {"sym": _product(seed), "pair": _slope_pair(), "W": size["W"],
            "grid": size["grid"]}


def run_edge_scan(inputs):
    gap_a, gap_b = invariants.edge_gap_scan(
        inputs["sym"], inputs["pair"], inputs["W"], inputs["grid"])
    return {"min_edge_gap_alpha": gap_a, "min_edge_gap_beta": gap_b}


def check_edge_scan(inputs, out):
    return {
        "edge_gap_alpha": out.get("min_edge_gap_alpha", 0.0) >= EDGE_GAP_MIN,
        "edge_gap_beta": out.get("min_edge_gap_beta", 0.0) >= EDGE_GAP_MIN,
    }


# ---------------------------------------------------------------------------
# bulk_invariants: Bloch-grid loops and dense half-line tracking

def setup_bulk_invariants(seed, size, workdir):
    models, h1, h2, grading = _factors(seed)
    return {"h1": h1, "h2": h2, "h2_double": models["h2_double_shift"].symbol,
            "grading": grading, "product": symbol.product_hamiltonian(h1, h2, grading),
            "size": size}


def run_bulk_invariants(inputs):
    size, grading = inputs["size"], inputs["grading"]
    h1, h2, h2_double = inputs["h1"], inputs["h2"], inputs["h2_double"]
    return {
        "chern": invariants.chern_number(h1, size["chern_grid"]),
        "winding": invariants.winding_number(h2, grading, size["winding_grid"]),
        "winding_double": invariants.winding_number(h2_double, grading,
                                                    size["winding_grid"]),
        "kernel_signature": invariants.kernel_signature(h2, grading, size["kernel_W"]),
        "kernel_signature_double": invariants.kernel_signature(h2_double, grading,
                                                               size["kernel_W"]),
        "weak": list(invariants.weak_invariants(inputs["product"], size["weak_grid"])),
        "bulk_edge_pair": list(invariants.bulk_edge_pair(h1, h2, grading)),
        "edge_flow": invariants.edge_spectral_flow(h1, W=size["flow_W"],
                                                   n_t=size["flow_t_grid"]),
    }


BULK_EXPECTED = {
    "chern": -1,
    "winding": -1,
    "winding_double": -2,
    "kernel_signature": -1,
    "kernel_signature_double": -2,
    "weak": [0, 0, 0],
    "bulk_edge_pair": [2, 1],
    "edge_flow": 1,
}


def check_bulk_invariants(inputs, out):
    return {key: out.get(key) == want for key, want in BULK_EXPECTED.items()}


# ---------------------------------------------------------------------------
# corner_slices: single occupied corner slices at two truncation sizes

def _corner_profile(site):
    # Same sharpening profile as the corner flow uses, so the slices rotate
    # degenerate clusters exactly as they would inside a flow.
    return math.exp(-(abs(site[0]) + 1.618 * abs(site[1])) / 4.0)


def setup_corner_slices(seed, size, workdir):
    sym, pair = _product(seed), _slope_pair()
    # One angle near the middle of each equal stratum of [-ANGLE_RANGE,
    # ANGLE_RANGE], jittered by the seed by up to a tenth of the stratum.  A
    # slice costs more as its corner energy nears the window edge (about
    # 1.5x at the ends of the range), so uniform draws over the whole range
    # would make the pass time swing by seed.
    n = size["angles"]
    jitter = np.random.default_rng(seed).uniform(-0.1, 0.1, n)
    angles = ANGLE_RANGE * (2 * (np.arange(n) + 0.5 + jitter) / n - 1)
    # The window the flow would use: 0.45 times the smaller edge gap.
    gap_a, gap_b = invariants.edge_gap_scan(sym, pair, size["window_W"],
                                            size["window_grid"])
    return {"sym": sym, "pair": pair, "angles": [float(t) for t in angles],
            "sizes": size["sizes"], "window": 0.45 * min(gap_a, gap_b)}


def run_corner_slices(inputs):
    window = inputs["window"]
    slices = []
    for t in inputs["angles"]:
        energies = {}
        for L in inputs["sizes"]:
            op = assembly.assemble_corner(inputs["sym"], inputs["pair"], L, t)
            sl = spectra.diagonalize_window(op, window, k=24)
            sl = spectra.sharpen_degeneracies(sl, _corner_profile, matrix=op.matrix)
            half = L / 2
            weights = spectra.all_weights(
                sl, lambda site, half=half: max(abs(site[0]), abs(site[1])) <= half)
            keep = (np.abs(sl.eigenvalues) <= window) & (weights >= CORNER_WEIGHT_MIN)
            energies[str(L)] = [float(e) for e in sl.eigenvalues[keep]]
        slices.append({"t": t, "corner_energies": energies})
    return {"window": window, "slices": slices}


def check_corner_slices(inputs, out):
    rows = out.get("slices", [])
    results = {}
    for i in range(len(inputs["angles"])):
        found = rows[i]["corner_energies"] if i < len(rows) else {}
        for L in inputs["sizes"]:
            results[f"angle{i}.L{L}.corner_state"] = len(found.get(str(L), [])) > 0
        small = found.get(str(inputs["sizes"][0]), [])
        large = found.get(str(inputs["sizes"][-1]), [])
        results[f"angle{i}.converged"] = (
            len(small) > 0 and len(small) == len(large)
            and max(abs(a - b) for a, b in zip(small, large)) <= CORNER_AGREE_TOL
        )
    return results


WORKLOADS = {
    "report": Workload(setup_report, run_report, check_report),
    "edge_scan": Workload(setup_edge_scan, run_edge_scan, check_edge_scan),
    "bulk_invariants": Workload(setup_bulk_invariants, run_bulk_invariants,
                                check_bulk_invariants),
    "corner_slices": Workload(setup_corner_slices, run_corner_slices,
                              check_corner_slices),
}
