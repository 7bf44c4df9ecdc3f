"""Acceptance gate: one test per release criterion, one verdict line each.

Run with ``pytest -v tests/test_acceptance.py``; the PASSED/FAILED mark
of each test below is the pass/fail line of that criterion.  Heavy
results are computed in shared session fixtures, so this file also
owns the wall-time budget checks.
"""

import time

import numpy as np

import cornerlab as cl
from cornerlab import symbol

from oracles import (
    oracle_chern_refine,
    oracle_flow_smalls,
    oracle_halfline_kernel,
    shift_recursion_kernel,
)

EXPECTED_COMBOS = {
    ("h1_example", "h2_example"): 1,
    ("h1_trivial", "h2_example"): 0,
    ("h1_example", "h2_double_shift"): 2,
    ("h1_trivial", "h2_double_shift"): 0,
}


def test_criterion_1_example_integers(models, product_flow, timings):
    h1 = models["h1_example"].symbol
    h2 = models["h2_example"].symbol
    g = models["h2_example"].grading

    t0 = time.perf_counter()
    chern = cl.chern_number(h1, grid=40)
    chern_s = time.perf_counter() - t0
    assert chern == -1, f"chern invariant {chern} != -1"
    assert chern_s < 5.0, f"chern run took {chern_s:.2f}s, budget 5s"

    t0 = time.perf_counter()
    wind = cl.winding_number(h2, g, grid=256)
    wind_s = time.perf_counter() - t0
    assert wind == -1, f"winding {wind} != -1"
    assert wind_s < 1.0, f"winding run took {wind_s:.2f}s, budget 1s"

    ksig = cl.kernel_signature(h2, g, W=40)
    assert ksig == -1, f"kernel signature {ksig} != -1"

    net, _ = product_flow
    assert net == 1, f"corner spectral flow {net} != +1"
    flow_s = timings["corner_flow_product"]
    # Measured 0.5-0.8 s on a 2-core VM with one BLAS thread; about 2x margin.
    assert flow_s < 1.6, f"corner flow took {flow_s:.1f}s, budget 1.6s"

    pair = cl.bulk_edge_pair(h1, h2, g)
    assert pair == (2, 1), f"bulk-edge pair {pair} != (2, 1)"
    print(f"criterion 1 (example integers): PASS "
          f"[chern {chern_s:.2f}s, winding {wind_s:.2f}s, flow {flow_s:.1f}s]")


def test_criterion_2_edge_gap_condition(edge_scan_product, timings):
    gap_a, gap_b = edge_scan_product
    assert gap_a >= 0.99, f"alpha edge gap {gap_a:.6f} < 0.99"
    assert gap_b >= 0.99, f"beta edge gap {gap_b:.6f} < 0.99"
    scan_s = timings["edge_scan_product"]
    # Measured 0.4-0.5 s on a 2-core VM with one BLAS thread; about 2x margin.
    assert scan_s < 1.0, f"edge scan took {scan_s:.1f}s, budget 1s"
    print(f"criterion 2 (edge gaps {gap_a:.4f}/{gap_b:.4f}): PASS [{scan_s:.1f}s]")


def test_criterion_3_product_formula(models, combo_flows, timings):
    g = models["h2_example"].grading
    for (n1, n2), want in EXPECTED_COMBOS.items():
        net, _ = combo_flows[(n1, n2)]
        i1 = cl.chern_number(models[n1].symbol)
        i2 = cl.winding_number(models[n2].symbol, g)
        assert net == i1 * i2 == want, (
            f"{n1} x {n2}: flow {net}, factors {i1}*{i2}, expected {want}")
    total_s = timings["corner_flow_combos"]
    # Measured 2.3-3.1 s on a 2-core VM with one BLAS thread; about 2x margin.
    assert total_s < 6.5, f"combo flows took {total_s:.1f}s, budget 6.5s"
    print(f"criterion 3 (product formula 1/0/2/0): PASS [{total_s:.1f}s]")


def test_criterion_4_weak_invariants(models):
    weak = cl.weak_invariants(models["product_example"].symbol, grid=20)
    assert weak == (0, 0, 0), f"product weak invariants {weak} != (0, 0, 0)"
    stacked = cl.weak_invariants(models["h1_stacked"].symbol, grid=20)
    assert any(w != 0 for w in stacked), (
        f"stacked control has no nonzero weak slot: {stacked}")
    print(f"criterion 4 (weak {weak}, control {stacked}): PASS")


def test_criterion_5_perturbation_stability(perturbed_runs, timings):
    for seed, (net, (gap_a, gap_b)) in perturbed_runs.items():
        assert net == 1, f"seed {seed}: perturbed flow {net} != 1"
        assert min(gap_a, gap_b) >= 0.8, (
            f"seed {seed}: perturbed edge gaps ({gap_a:.4f}, {gap_b:.4f}) < 0.8")
    runs_s = timings["perturbed_runs"]
    # Measured 9.3-12.5 s on a 2-core VM with one BLAS thread; about 2x margin.
    assert runs_s < 25.0, f"perturbed runs took {runs_s:.1f}s, budget 25s"
    print(f"criterion 5 (5 seeds, norm 0.1): PASS [{runs_s:.1f}s]")


def _near_wall_zero_state(op, depth):
    """Smallest-|eigenvalue| state living on the near half of a half-line.

    The half-line hosts a mirror state at the far wall that is exactly
    degenerate with the near-wall one whenever the crossing sits at zero,
    so the degenerate cluster is rotated onto the wall profile first.
    """
    from cornerlab import spectra

    sl = spectra.diagonalize(op)
    sl = spectra.sharpen_degeneracies(
        sl, lambda s: np.exp(-s[0] / 2.0), matrix=op.matrix)
    weights = spectra.all_weights(sl, lambda s: s[0] < depth)
    near = [i for i in range(sl.eigenvalues.size) if weights[i] >= 0.5]
    best = min(near, key=lambda i: abs(sl.eigenvalues[i]))
    return sl.eigenvectors[:, best]


def test_criterion_6_kernel_factorization(models, crossing_states):
    from cornerlab import assembly

    t_star = crossing_states["t"]
    lam, vec, region, weight = crossing_states[24]
    assert weight >= 0.6, f"corner state weight {weight:.3f} too delocalized"

    h1 = models["h1_example"].symbol
    h2 = models["h2_example"].symbol
    hl1 = assembly.assemble_halfline(symbol.partial_bloch(h1, 1, -t_star), 24)
    hl2 = assembly.assemble_halfline(h2, 24)
    psi1 = _near_wall_zero_state(hl1, 12)
    psi2 = _near_wall_zero_state(hl2, 12)

    n1, n2 = h1.norb, h2.norb
    tens = np.zeros(region.dof, dtype=complex)
    for (m, n) in region.sites:
        if m >= 24 or n >= 24:
            continue
        for o1 in range(n1):
            a1 = psi1[hl1.region.index((n, 0), o1)]
            for o2 in range(n2):
                a2 = psi2[hl2.region.index((m, 0), o2)]
                tens[region.index((m, n), o1 * n2 + o2)] = a1 * a2
    tens /= np.linalg.norm(tens)
    overlap = abs(np.vdot(vec, tens))
    assert overlap >= 0.95, f"factorization overlap {overlap:.4f} < 0.95"
    print(f"criterion 6 (overlap {overlap:.6f} at t={t_star:.6f}): PASS")


def test_criterion_7_property_suites(models, pair0inf, product_flow,
                                     combo_flows, crossing_states):
    from cornerlab import assembly

    h1 = models["h1_example"].symbol
    h2 = models["h2_example"].symbol
    ds = models["h2_double_shift"].symbol
    g = models["h2_example"].grading
    prod = models["product_example"].symbol

    # Hermiticity of assembled operators.
    ops = [
        assembly.assemble_halfline(h2, 30),
        assembly.assemble_edge_strip(prod, pair0inf.alpha, "alpha", 12, 0.7, t=1.1),
        assembly.assemble_corner(prod, pair0inf, 10, 2.2),
    ]
    for name, op in zip(("halfline", "edge strip", "corner"), ops):
        dense = op.dense()
        herm = float(np.abs(dense - dense.conj().T).max())
        assert herm <= 1e-12, f"{name}: Hermiticity defect {herm:.2e}"

    # Grid-doubling stability of the bulk invariants.
    assert cl.chern_number(h1, grid=40) == cl.chern_number(h1, grid=80)
    assert cl.winding_number(h2, g, grid=256) == cl.winding_number(h2, g, grid=512)

    # Bulk-edge cross-checks.
    assert cl.winding_number(h2, g) == cl.kernel_signature(h2, g)
    assert cl.winding_number(ds, g) == cl.kernel_signature(ds, g)
    assert -cl.chern_number(h1) == cl.edge_spectral_flow(h1)
    assert -cl.chern_number(models["h1_trivial"].symbol) == cl.edge_spectral_flow(
        models["h1_trivial"].symbol)

    # Oracle equivalence on every oracle-covered instance.
    for sym_1d, want in ((h2, -1), (ds, -2)):
        dim, eigs = oracle_halfline_kernel(sym_1d, g, 40)
        assert shift_recursion_kernel(sym_1d, g, 40) == (dim, eigs)
        assert cl.kernel_signature(sym_1d, g, W=40) == -sum(eigs) == want
    assert oracle_chern_refine(h1) == cl.chern_number(h1) == -1
    assert oracle_chern_refine(models["h1_trivial"].symbol) == 0
    assert oracle_flow_smalls(
        lambda t: np.diag([np.sin(t), -np.sin(t)]).astype(complex)) == 0

    # Finite-size convergence at the detected crossing.
    lam24 = crossing_states[24][0]
    lam48 = crossing_states[48][0]
    assert abs(lam24 - lam48) < 1e-6, (
        f"|lambda(24) - lambda(48)| = {abs(lam24 - lam48):.2e}")

    # Mask-threshold robustness of the flow counts.
    for th in np.linspace(0.4, 0.8, 9):
        _, detail = product_flow
        assert detail.net_at(th) == 1, f"product flow changes at threshold {th}"
        _, detail2 = combo_flows[("h1_example", "h2_double_shift")]
        assert detail2.net_at(th) == 2, f"double flow changes at threshold {th}"
    print("criterion 7 (property suites): PASS")
