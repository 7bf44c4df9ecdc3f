"""Shared fixtures.

The corner-flow runs dominate the suite's cost, so every result that
more than one test needs is computed once per session here.  The
acceptance tests consume these fixtures first (that file sorts first in
collection), which is also where the recorded wall times are checked
against the runtime budgets.
"""

import os
import time

# One BLAS thread, set before numpy loads: the many small factorizations
# in a corner flow contend rather than gain from threads, and the
# acceptance wall-time budgets should measure the algorithm.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest

import cornerlab as cl
from cornerlab import geometry, symbol

CORNER_L = 24
T_GRID = 64
EDGE_W = 40
EDGE_GRID = (16, 16)
PERTURB_SEEDS = (0, 1, 2, 3, 4)
PERTURB_NORM = 0.1


@pytest.fixture(scope="session")
def models():
    return symbol.builtin_models()


@pytest.fixture(scope="session")
def pair0inf():
    return geometry.SlopePair(geometry.Slope.rational(0, 1),
                              geometry.Slope.plus_inf())


@pytest.fixture(scope="session")
def timings():
    """Wall times of the heavy fixture computations, keyed by name."""
    return {}


def _timed(timings, key, fn):
    t0 = time.perf_counter()
    out = fn()
    timings[key] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="session")
def product_flow(models, pair0inf, timings):
    """(net, detail) of the corner flow on the built-in product model."""
    return _timed(timings, "corner_flow_product", lambda: cl.corner_spectral_flow(
        models["product_example"].symbol, pair0inf, CORNER_L, n_t=T_GRID))


@pytest.fixture(scope="session")
def combo_flows(models, pair0inf, timings, product_flow):
    """Corner flow for all four factor combinations, keyed by name pair.

    The (h1_example, h2_example) product equals the built-in product
    model, so that slot reuses ``product_flow``.
    """
    g = models["h2_example"].grading
    out = {("h1_example", "h2_example"): product_flow}
    t0 = time.perf_counter()
    for n1 in ("h1_example", "h1_trivial"):
        for n2 in ("h2_example", "h2_double_shift"):
            if (n1, n2) in out:
                continue
            sym = symbol.product_hamiltonian(
                models[n1].symbol, models[n2].symbol, g)
            out[(n1, n2)] = cl.corner_spectral_flow(
                sym, pair0inf, CORNER_L, n_t=T_GRID)
    timings["corner_flow_combos"] = (
        time.perf_counter() - t0 + timings["corner_flow_product"])
    return out


@pytest.fixture(scope="session")
def edge_scan_product(models, pair0inf, timings):
    return _timed(timings, "edge_scan_product", lambda: cl.edge_gap_scan(
        models["product_example"].symbol, pair0inf, EDGE_W, EDGE_GRID))


@pytest.fixture(scope="session")
def perturbed_runs(models, pair0inf, timings):
    """Per seed: (net flow, (alpha gap, beta gap)) of the perturbed product."""
    def run():
        out = {}
        for seed in PERTURB_SEEDS:
            pert = symbol.perturb_onsite(
                models["product_example"].symbol, PERTURB_NORM, seed)
            gaps = cl.edge_gap_scan(pert, pair0inf, EDGE_W, EDGE_GRID)
            net, _ = cl.corner_spectral_flow(pert, pair0inf, CORNER_L, n_t=T_GRID)
            out[seed] = (net, gaps)
        return out
    return _timed(timings, "perturbed_runs", run)


def detected_crossing_t(detail):
    """Angle of the strongest corner-localized upward crossing."""
    best = None
    for c in detail.crossings:
        if c.direction != 1 or not c.member_weights:
            continue
        w = max(c.member_weights)
        if best is None or w > best[0]:
            best = (w, c.t)
    if best is None:
        raise AssertionError("no upward crossing with localization data")
    return best[1]


def corner_state_near_zero(sym, pair, L, t, window, threshold=0.6):
    """Best corner-localized eigenpair of the corner section at angle t.

    Returns (eigenvalue, eigenvector, region, weight) of the smallest
    |eigenvalue| state whose corner-mask weight clears the threshold.
    """
    from cornerlab import assembly, spectra

    op = assembly.assemble_corner(sym, pair, L, t)
    sl = spectra.diagonalize_window(op, window)
    sl = spectra.sharpen_degeneracies(
        sl, lambda s: np.exp(-(abs(s[0]) + 1.618 * abs(s[1])) / 4.0),
        matrix=op.matrix)
    weights = spectra.all_weights(
        sl, lambda s: max(abs(s[0]), abs(s[1])) <= L / 2)
    best = None
    for i, v in enumerate(sl.eigenvalues):
        if weights[i] >= threshold and (
                best is None or abs(v) < abs(sl.eigenvalues[best])):
            best = i
    if best is None:
        raise AssertionError(f"no corner-localized state at t={t}")
    return sl.eigenvalues[best], sl.eigenvectors[:, best], op.region, weights[best]


@pytest.fixture(scope="session")
def crossing_states(models, pair0inf, product_flow, timings):
    """Corner eigenpairs at the detected crossing, at L=24 and L=48."""
    _, detail = product_flow
    t_star = detected_crossing_t(detail)
    sym = models["product_example"].symbol

    def run():
        return {
            "t": t_star,
            24: corner_state_near_zero(sym, pair0inf, 24, t_star, detail.window),
            48: corner_state_near_zero(sym, pair0inf, 48, t_star, detail.window),
        }
    return _timed(timings, "crossing_states", run)
