"""Oracle self-checks, plus library-vs-oracle equality on shared instances."""

from fractions import Fraction

import numpy as np
import pytest

import cornerlab as cl
from cornerlab.geometry import Slope, SlopePair
from cornerlab.symbol import (
    ChiralGrading,
    HamiltonianSymbol,
    builtin_models,
    chiral_shift_model,
    perturb_onsite,
    product_hamiltonian,
    qwz_model,
    sx,
    sz,
)

from oracles import (
    fraction_depth,
    oracle_chern_refine,
    oracle_corner_matrix,
    oracle_edge_gap_scan,
    oracle_edge_spectral_flow,
    oracle_flow_smalls,
    oracle_halfline_kernel,
    oracle_strip_matrix,
    shift_recursion_kernel,
)


def test_kernel_oracle_single_shift():
    sym, g = chiral_shift_model(1)
    assert oracle_halfline_kernel(sym, g, 40) == (1, [1])
    assert shift_recursion_kernel(sym, g, 40) == (1, [1])


def test_kernel_oracle_double_shift():
    sym, g = chiral_shift_model(2)
    assert oracle_halfline_kernel(sym, g, 40) == (2, [1, 1])
    assert shift_recursion_kernel(sym, g, 40) == (2, [1, 1])


def test_kernel_oracle_svd_matches_recursion_at_many_widths():
    for steps in (1, 2):
        sym, g = chiral_shift_model(steps)
        for W in (2 * steps, 11, 24):
            assert oracle_halfline_kernel(sym, g, W) == \
                shift_recursion_kernel(sym, g, W)


def test_kernel_oracle_trivial_model():
    g = ChiralGrading(sz)
    onsite = HamiltonianSymbol(1, 2, {(0,): sx})
    assert oracle_halfline_kernel(onsite, g, 30) == (0, [])
    assert shift_recursion_kernel(onsite, g, 30) is None


def test_recursion_guards():
    sym, g = chiral_shift_model(2)
    with pytest.raises(ValueError):
        shift_recursion_kernel(sym, g, 3)
    # sx blocks are self-adjoint but not nilpotent: recursion declines
    hopping_sx = HamiltonianSymbol(1, 2, {(1,): sx, (-1,): sx})
    assert shift_recursion_kernel(hopping_sx, g, 20) is None


def test_library_kernel_signature_equals_oracle(models):
    """kernel_signature is minus the grading sum over the oracle kernel."""
    g = models["h2_example"].grading
    for name in ("h2_example", "h2_double_shift"):
        sym = models[name].symbol
        dim, eigs = oracle_halfline_kernel(sym, g, 40)
        assert len(eigs) == dim
        assert cl.kernel_signature(sym, g, W=40) == -sum(eigs)


def test_chern_oracle_values():
    assert oracle_chern_refine(qwz_model(-1.0)) == -1
    assert oracle_chern_refine(qwz_model(-3.0)) == 0
    assert oracle_chern_refine(builtin_models()["onsite_gapped_2d"].symbol) == 0


def test_chern_oracle_rejects_gapless():
    with pytest.raises(AssertionError):
        oracle_chern_refine(qwz_model(-2.0))


def test_library_chern_equals_oracle(models):
    for name in ("h1_example", "h1_trivial", "onsite_gapped_2d"):
        sym = models[name].symbol
        assert cl.chern_number(sym) == oracle_chern_refine(sym)


def test_flow_oracle_reference_families():
    assert oracle_flow_smalls(
        lambda t: np.diag([np.sin(t), -np.sin(t)]).astype(complex)) == 0
    assert oracle_flow_smalls(lambda t: np.array([[np.sin(t)]], complex)) == 0
    assert oracle_flow_smalls(
        lambda t: np.cos(t) * sz + np.sin(t) * sx) == 0
    with pytest.raises(ValueError):
        oracle_flow_smalls(lambda t: np.eye(9))


def test_library_tracking_agrees_with_flow_oracle():
    """Unfiltered tracked flow equals the oracle on dense synthetic families,
    and endpoint weights are computed only for the links that cross zero."""
    from cornerlab.spectra import SpectralSlice, crossings, track_branches

    families = [
        lambda t: np.diag([np.sin(t), -np.sin(t)]).astype(complex),
        lambda t: np.array([[np.sin(t)]], complex),
        lambda t: np.cos(t) * sz + np.sin(t) * sx,
        # Never leaves the window: one closed cycle, up-crossing on the wrap link.
        lambda t: np.array([[0.3 * np.sin(t)]], complex),
    ]
    grid = (np.arange(96) + 0.5) * 2 * np.pi / 96
    calls = []

    def weight_fn(sl, i):
        calls.append((sl.t, i))
        return 1.0

    for fam in families:
        slices = []
        for t in grid:
            vals, vecs = np.linalg.eigh(fam(t))
            slices.append(SpectralSlice(vals, vecs, t=float(t)))
        calls.clear()
        found = crossings(track_branches(slices, window=0.5, weight_fn=weight_fn))
        net = sum(c.direction for c in found)
        assert net == oracle_flow_smalls(fam)
        assert len(calls) == 2 * len(found)
        assert all(c.weight == 1.0 for c in found)
    assert len(found) == 2 and net == 0
    up = next(c.t for c in found if c.direction == 1)
    assert min(up, 2 * np.pi - up) < 1e-9


def _oracle_slope(text):
    return float(text) if "inf" in text else Fraction(text)


def _random_range2_symbol(rng):
    """Dim-3, two-orbital symbol with random hoppings reaching two sites."""
    hoppings = {}
    for _ in range(6):
        off = (*(int(c) for c in rng.integers(-2, 3, size=2)), int(rng.integers(-1, 2)))
        blk = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        minus = tuple(-c for c in off)
        hoppings[off] = hoppings.get(off, 0) + blk
        hoppings[minus] = hoppings.get(minus, 0) + blk.conj().T
    return HamiltonianSymbol(3, 2, hoppings)


def test_assemblers_match_site_pair_oracle():
    """Corner and strip matrices equal a dense double loop over site pairs."""
    rng = np.random.default_rng(41)
    syms = (builtin_models()["product_example"].symbol, _random_range2_symbol(rng))
    for sym in syms:
        for alpha, beta in (("0", "inf"), ("-1/2", "3"), ("-inf", "1/3")):
            t = float(rng.uniform(0, 2 * np.pi))
            op = cl.assemble_corner(
                sym, SlopePair(Slope.parse(alpha), Slope.parse(beta)), 5, t)
            sites, want = oracle_corner_matrix(
                sym, _oracle_slope(alpha), _oracle_slope(beta), 5, t)
            assert list(op.region.sites) == sites
            assert np.max(np.abs(op.dense() - want)) <= 1e-14
        for slope, which in (("0", "alpha"), ("0", "beta"), ("1/2", "alpha"),
                             ("1/2", "beta"), ("-3/2", "alpha"), ("-3/2", "beta"),
                             ("inf", "beta"), ("-inf", "alpha")):
            k_edge, t = (float(x) for x in rng.uniform(0, 2 * np.pi, size=2))
            op = cl.assemble_edge_strip(sym, Slope.parse(slope), which, 5, k_edge, t=t)
            sites, want = oracle_strip_matrix(sym, _oracle_slope(slope), which, 5, k_edge, t)
            assert list(op.region.sites) == sites
            assert np.max(np.abs(op.dense() - want)) <= 1e-14


def test_corner_family_points_match_site_pair_oracle():
    """Every point of one corner family equals the dense double loop over site pairs."""
    rng = np.random.default_rng(43)
    for sym in (builtin_models()["product_example"].symbol, _random_range2_symbol(rng)):
        for alpha, beta in (("0", "inf"), ("-1/2", "3")):
            family = cl.assembly.corner_family(
                sym, SlopePair(Slope.parse(alpha), Slope.parse(beta)), 5)
            for t in (0.0, 0.7, float(rng.uniform(0, 2 * np.pi)), 4.1):
                op = family.operator(t=t)
                sites, want = oracle_corner_matrix(
                    sym, _oracle_slope(alpha), _oracle_slope(beta), 5, t)
                assert list(op.region.sites) == sites and op.t == t
                assert op.pattern is family.pattern
                assert np.max(np.abs(op.dense() - want)) <= 1e-14


def test_strip_depth_matches_fraction_formula():
    grid = np.stack(np.meshgrid(np.arange(-7, 8), np.arange(-7, 8), indexing="ij"), -1)
    for text, which in (("0", "alpha"), ("0", "beta"), ("1/2", "alpha"),
                        ("1/2", "beta"), ("-3/2", "alpha"), ("-3/2", "beta"),
                        ("2/5", "alpha"), ("-7/3", "beta"),
                        ("inf", "beta"), ("-inf", "alpha")):
        slope, exact = Slope.parse(text), _oracle_slope(text)
        depths = cl.strip_depth(slope, which, grid)
        for m in range(-7, 8):
            for n in range(-7, 8):
                want = fraction_depth(exact, which, m, n)
                assert depths[m + 7, n + 7] == want
                assert cl.strip_depth(slope, which, (m, n)) == want


def _edge_scan_cases():
    """(symbol, pair, W, grid) of each oracle case for the screened edge scan."""
    models = builtin_models()
    product = models["product_example"].symbol
    h2 = models["h2_example"]
    quadrant = SlopePair(Slope.rational(0, 1), Slope.plus_inf())

    def factor_perturbed(seed):
        h1 = perturb_onsite(models["h1_example"].symbol, 0.1, seed)
        return product_hamiltonian(h1, h2.symbol, h2.grading)

    return {
        "product": (product, quadrant, 16, (6, 6)),
        "perturbed_3": (perturb_onsite(product, 0.1, 3), quadrant, 16, (6, 6)),
        "perturbed_8": (perturb_onsite(product, 0.1, 8), quadrant, 16, (6, 6)),
        "factor_perturbed_3": (factor_perturbed(3), quadrant, 16, (6, 6)),
        "factor_perturbed_8": (factor_perturbed(8), quadrant, 16, (6, 6)),
        # clusters straddle 0 on the gapless alpha edge
        "stacked": (models["h1_stacked"].symbol, quadrant, 16, (6, 6)),
        # supercells of two columns on both sides
        "slopes_q2": (product, SlopePair(Slope.parse("-3/2"), Slope.parse("1/2")), 16, (6, 6)),
        # the edge_scan benchmark's configuration
        "factor_perturbed_201_W40": (factor_perturbed(201), quadrant, 40, (6, 6)),
        # five-column supercells: strips of bandwidth 27, squares of 54
        "slope_2_5": (product, SlopePair(Slope.parse("2/5"), Slope.plus_inf()), 8, (4, 4)),
    }


@pytest.mark.parametrize("name", list(_edge_scan_cases()))
def test_screened_edge_scan_equals_unscreened_oracle(monkeypatch, name):
    """The Cholesky clearance skips only strips that cannot lower a minimum,
    so both minima are exactly those of the same scan with no strip skipped."""
    sym, pair, W, grid = _edge_scan_cases()[name]
    screened = cl.edge_gap_scan(sym, pair, W, grid)
    monkeypatch.setattr(cl.invariants, "_clears", lambda square, rho, g: False)
    assert screened == cl.edge_gap_scan(sym, pair, W, grid)


@pytest.mark.parametrize("name", list(_edge_scan_cases()))
def test_edge_scan_matches_dense_full_loop(name):
    """The subset solves of the full-path strips agree with the dense loop
    that takes every strip through ``eigh``, within 1e-13 absolute: MRRR and
    divide and conquer differ in the last bits.  The bound is absolute since
    some minima are near 1e-33."""
    sym, pair, W, grid = _edge_scan_cases()[name]
    got = cl.edge_gap_scan(sym, pair, W, grid)
    want = oracle_edge_gap_scan(sym, pair, W, grid)
    assert got == pytest.approx(want, rel=0, abs=1e-13)


def _edge_flow_cases():
    h1 = builtin_models()["h1_example"].symbol
    cases = {"h1_example": h1}
    cases.update({f"qwz_{mass:+g}": qwz_model(mass) for mass in (1.0, -1.0, -3.0)})
    cases.update({f"perturbed_{seed}": perturb_onsite(h1, 0.1, seed)
                  for seed in range(201, 206)})
    return cases


def _strip_window_cases():
    h1 = builtin_models()["h1_example"].symbol
    cases = {"h1_example": (h1, 40, False), "h1_example_refined": (h1, 40, True),
             "qwz_-1.5": (qwz_model(-1.5), 40, False),
             "qwz_-1.9_W8": (qwz_model(-1.9), 8, False)}
    cases.update({f"perturbed_{seed}": (perturb_onsite(h1, 0.1, seed), 40, False)
                  for seed in range(201, 206)})
    return cases


@pytest.mark.parametrize("name", sorted(_strip_window_cases()))
def test_strip_windows_match_sylvester_inertia(monkeypatch, name):
    """Every slice the edge flow builds, grid and refinements, holds as many
    eigenvalues in [-edge, edge] as Sylvester inertia counts on the same
    strip: two symmetric-mode LDL^H factorizations at -edge and +edge.  A
    slice the banded Cholesky cleared without a solve counts 0.  With no
    overlap passing ``OVERLAP_MIN``, every interval holding a windowed state
    is bisected until the flow refuses, so refinements are checked too."""
    sym, W, refine = _strip_window_cases()[name]
    tracked, clears = cl.invariants._tracked_crossings, cl.invariants._clears
    slices, verdicts = [], []

    def kept_clears(*args):
        verdicts.append(clears(*args))
        return verdicts[-1]

    def kept_tracked(solve, n_t, window, *args):
        def kept_solve(ts):
            # each slice is yielded right after its own clearance
            for t, sl in zip(ts, solve(ts)):
                slices.append((float(t), sl, verdicts[-1]))
                yield sl
        slices.append(1.05 * window)
        return tracked(kept_solve, n_t, window, *args)

    monkeypatch.setattr(cl.invariants, "_clears", kept_clears)
    monkeypatch.setattr(cl.invariants, "_tracked_crossings", kept_tracked)
    if refine:
        monkeypatch.setattr(cl.spectra, "OVERLAP_MIN", 1.01)
        with pytest.raises(cl.TrackingError, match="ambiguous"):
            cl.edge_spectral_flow(sym, W=W)
    else:
        cl.edge_spectral_flow(sym, W=W)
    edge, slices = slices[0], slices[1:]
    family = cl.assembly.strip_family(sym, Slope.plus_inf(), "beta", W)
    assert len(slices) > 64 if refine else len(slices) == 64
    for t, sl, cleared in slices:
        op = family.operator(-t, t)
        count = (cl.spectra._count_below(op.pattern, op.matrix.data, edge)
                 - cl.spectra._count_below(op.pattern, op.matrix.data, -edge))
        assert np.count_nonzero(np.abs(sl.eigenvalues) <= edge) == count
        assert count == 0 or not cleared


@pytest.mark.parametrize("name", sorted(_edge_flow_cases()))
def test_edge_flow_matches_dense_halfline_loop(monkeypatch, name):
    """The window-solved strip-family flow finds the crossings of the dense
    per-angle half-line loop: same net, directions, places and weights."""
    sym = _edge_flow_cases()[name]
    crossings, found = cl.spectra.crossings, {}

    def kept_crossings(track):
        found["crossings"] = crossings(track)
        return found["crossings"]

    monkeypatch.setattr(cl.spectra, "crossings", kept_crossings)
    net = cl.edge_spectral_flow(sym, W=24, n_t=32)
    monkeypatch.undo()
    want_net, want = oracle_edge_spectral_flow(sym, 24, 32)
    assert net == want_net
    got = sorted(found["crossings"], key=lambda c: (c.direction, c.t))
    want = sorted(want, key=lambda c: (c.direction, c.t))
    assert [c.direction for c in got] == [c.direction for c in want]
    for c, w in zip(got, want):
        assert abs(c.t - w.t) <= 1e-9 and abs(c.weight - w.weight) <= 1e-9
