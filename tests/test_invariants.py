"""Bulk invariants, edge diagnostics, corner flow, and the report."""

import json
import math
from itertools import groupby

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cornerlab as cl
from cornerlab import (
    GapClosedError,
    GeometryError,
    ModelError,
    ResidualError,
    TrackingError,
    assembly,
    geometry,
    invariants,
    spectra,
    symbol,
)
from cornerlab.assembly import AssembledOperator
from cornerlab.geometry import Slope, SlopePair
from cornerlab.spectra import Crossing
from cornerlab.symbol import (
    ChiralGrading,
    HamiltonianSymbol,
    builtin_models,
    chiral_shift_model,
    direct_sum,
    qwz_model,
    sz,
)

PAIR = SlopePair(Slope.rational(0, 1), Slope.plus_inf())


def test_chern_example_values(models):
    assert cl.chern_number(models["h1_example"].symbol) == -1
    assert cl.chern_number(models["h1_trivial"].symbol) == 0
    assert cl.chern_number(models["onsite_gapped_2d"].symbol) == 0


def test_chern_rejects_gapless_and_wrong_dim():
    with pytest.raises(GapClosedError):
        cl.chern_number(qwz_model(-2.0))
    with pytest.raises(ModelError):
        cl.chern_number(chiral_shift_model()[0])


def test_winding_example_values(models):
    g = models["h2_example"].grading
    assert cl.winding_number(models["h2_example"].symbol, g) == -1
    assert cl.winding_number(models["h2_double_shift"].symbol, g) == -2


def test_winding_rejects_bad_grading(models):
    h2 = models["h2_example"].symbol
    with pytest.raises(ModelError):
        cl.winding_number(h2, ChiralGrading(np.eye(2)))
    with pytest.raises(ModelError):
        cl.winding_number(qwz_model(-1.0), models["h2_example"].grading)
    non_chiral = HamiltonianSymbol(1, 2, {(0,): sz})
    with pytest.raises(ModelError, match="anticommute"):
        cl.winding_number(non_chiral, ChiralGrading(sz))
    with pytest.raises(ModelError, match="anticommute"):
        cl.kernel_signature(non_chiral, ChiralGrading(sz))


def test_factor_invariants_refuse_mismatched_inputs(models):
    three = HamiltonianSymbol(1, 3, {(0,): np.zeros((3, 3))})
    with pytest.raises(ModelError, match="^grading blocks have sizes 2 and 1"):
        cl.winding_number(three, ChiralGrading(np.diag([1.0, 1.0, -1.0])))
    with pytest.raises(ModelError, match="needs a dim-1 symbol, got dim 2$"):
        cl.kernel_signature(models["h1_example"].symbol, ChiralGrading(sz))


def test_chern_refuses_a_band_crossing_the_fermi_level():
    """The one band 0.5 + cos(k_x) changes sign on the grid."""
    half = np.array([[0.5]])
    band = HamiltonianSymbol(2, 1, {(0, 0): half, (1, 0): half, (-1, 0): half})
    with pytest.raises(GapClosedError, match="^Fermi rank is not constant across the grid$"):
        cl.chern_number(band, 4)


def test_kernel_signature_values_and_w_independence(models):
    g = models["h2_example"].grading
    h2 = models["h2_example"].symbol
    ds = models["h2_double_shift"].symbol
    assert cl.kernel_signature(h2, g, W=20) == cl.kernel_signature(h2, g, W=40) == -1
    assert cl.kernel_signature(ds, g, W=20) == cl.kernel_signature(ds, g, W=40) == -2
    # Below twice the hopping range the near half reaches the far wall's
    # kernel, so W=3 is refined to 6.
    assert cl.kernel_signature(ds, g, W=3) == -2
    trivial = HamiltonianSymbol(1, 2, {(0,): np.array([[0, 1], [1, 0]], complex)})
    assert cl.kernel_signature(trivial, g) == 0


def test_kernel_signature_rejects_gapless():
    # H(k) = (1 + cos k) sx + sin k sy closes at k = pi
    sym = HamiltonianSymbol(1, 2, {
        (0,): np.array([[0, 1], [1, 0]], complex),
        (1,): np.array([[0, 1], [0, 0]], complex),
        (-1,): np.array([[0, 0], [1, 0]], complex),
    })
    with pytest.raises(GapClosedError):
        cl.kernel_signature(sym, ChiralGrading(sz))
    with pytest.raises(GapClosedError, match=r"k=\(3\.142\)"):
        cl.winding_number(sym, ChiralGrading(sz))


def test_edge_flow_is_minus_chern():
    for mass in (-1.0, 1.0, -3.0):
        sym = qwz_model(mass)
        assert cl.edge_spectral_flow(sym) == -cl.chern_number(sym)
    with pytest.raises(ModelError):
        cl.edge_spectral_flow(builtin_models()["product_example"].symbol)


def test_edge_gap_scan_product_small_grid(models):
    gap_a, gap_b = cl.edge_gap_scan(models["product_example"].symbol, PAIR,
                                    16, (6, 6))
    assert min(gap_a, gap_b) > 0.9


def test_edge_gap_scan_flags_gapless_stacked_edge(models):
    """The stacked control model has a gapless alpha edge: its edge band
    structure disperses through zero, so the scan must report (close to)
    zero for that side while the beta side stays fully gapped."""
    gap_a, gap_b = cl.edge_gap_scan(models["h1_stacked"].symbol, PAIR, 16, (6, 6))
    assert gap_a < 1e-8
    assert gap_b > 0.9
    with pytest.raises(ModelError):
        cl.edge_gap_scan(qwz_model(-1.0), PAIR, 16, (6, 6))


def _dispersive_orbital_model(hop):
    """On-site diag(1, 0.2) and diag(0, hop) on the hops along axes 0 and 1:
    the second orbital's bulk band 0.2 + 2 hop (cos k1 + cos k2) bottoms out
    at 0.2 - 4 hop at (pi, pi), and its states spread over the whole strip."""
    blocks = {(0, 0, 0): np.diag([1.0, 0.2])}
    blocks.update({off: np.diag([0.0, hop])
                   for off in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))})
    return HamiltonianSymbol(3, 2, blocks)


def test_edge_gap_scan_counts_bulk_states():
    """The spectrum of an edge compression holds the bulk bands: a bulk state
    weighs about 0.5 near the wall and must count, so a bulk band touching 0
    closes both edge gaps and the corner flow refuses.  With the band at
    0.12 the scan reads its nearest grid value, not the flat band at 1."""
    touching = _dispersive_orbital_model(0.05)
    assert max(cl.edge_gap_scan(touching, PAIR, 16, (4, 4))) <= 0.002
    with pytest.raises(GapClosedError, match="floor"):
        cl.corner_spectral_flow(touching, PAIR, 8, n_t=16)
    gaps = cl.edge_gap_scan(_dispersive_orbital_model(0.02), PAIR, 16, (4, 4))
    assert gaps == pytest.approx((0.1207, 0.1207), abs=1e-4)


@pytest.mark.parametrize("grid", [(0, 0), (0, 4), 0, (-1, 3), True, (True, 4), (4, 4, 4), (4,)])
def test_edge_gap_scan_refuses_empty_grid(models, grid, monkeypatch):
    """An empty grid would report an infinite gap; it is refused instead,
    and the report refuses it before any scan or invariant runs."""
    with pytest.raises(ModelError, match="grid"):
        cl.edge_gap_scan(models["product_example"].symbol, PAIR, 8, grid)

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the grid was validated")

    monkeypatch.setattr(invariants, "edge_gap_scan", no_work)
    monkeypatch.setattr(invariants, "weak_invariants", no_work)
    with pytest.raises(ModelError, match="grid"):
        cl.compute_report(models["product_example"].symbol, PAIR, W=8, edge_grid=grid)


@pytest.mark.parametrize("grid", [2, np.int64(2)])
def test_compute_report_records_int_edge_grid(models, grid):
    """An int grid n means (n, n) for the report as for the scan, and the
    provenance records it as a JSON pair of plain ints."""
    report = cl.compute_report(models["product_example"].symbol, PAIR,
                               W=8, edge_grid=grid, L=8, n_t=8)
    assert report.provenance["edge_grid"] == [2, 2]
    assert json.loads(report.to_json())["provenance"]["edge_grid"] == [2, 2]
    assert (report.min_edge_gap_alpha, report.min_edge_gap_beta) == cl.edge_gap_scan(
        models["product_example"].symbol, PAIR, 8, (2, 2))


def test_report_provenance_records_the_kernel_W_used(models):
    """W=40 is below twice the hopping range 25 of the shift, so the half-line
    kernel is refined to W=80, and the provenance says so."""
    h2, g = chiral_shift_model(25)
    report = cl.compute_report(models["product_example"].symbol, PAIR, W=8, edge_grid=2,
                               L=8, n_t=8, factors=(models["h1_example"].symbol, h2, g))
    assert report.kernel_signature == -25
    assert report.provenance["kernel_W"] == 80


def test_report_document_has_exactly_the_report_fields(models):
    """``to_dict`` writes the nine fields, tuples as lists, in JSON types."""
    report = cl.compute_report(
        models["product_example"].symbol, PAIR, W=8, edge_grid=2, L=8, n_t=8,
        factors=(models["h1_example"].symbol, models["h2_example"].symbol,
                 models["h2_example"].grading))
    doc = report.to_dict()
    assert type(doc["weak"]) is list and type(doc["bulk_edge_pair"]) is list
    types = {k: type(v).__name__ for k, v in json.loads(report.to_json()).items()}
    assert types == {
        "min_edge_gap_alpha": "float", "min_edge_gap_beta": "float", "chern_2dA": "int",
        "winding_1dAIII": "int", "kernel_signature": "int", "weak": "list",
        "corner_sf": "int", "bulk_edge_pair": "list", "provenance": "dict"}
    assert doc["weak"] == [0, 0, 0] and doc["bulk_edge_pair"] == [2, 1]


def _dense_of_band(band):
    """The Hermitian matrix whose lower band storage is ``band`` (real diagonal)."""
    n = band.shape[-1]
    h = np.diag(band[0].real).astype(complex)
    for d in range(1, band.shape[0]):
        h[np.arange(d, n), np.arange(n - d)] = band[d, :n - d]
        h[np.arange(n - d), np.arange(d, n)] = band[d, :n - d].conj()
    return h


@pytest.mark.parametrize("text, which", [("0", "alpha"), ("inf", "beta"), ("1/2", "alpha"),
                                         ("-3/2", "beta")])
def test_band_square_is_the_dense_square(text, which):
    """Each square of a row of strips is A @ A in depth order, within
    1e-13 rho^2, and rho is the dense max absolute row sum."""
    sym = builtin_models()["product_example"].symbol
    slope = Slope.parse(text)
    family = assembly.strip_family(sym, slope, which, 8)
    ts = np.array([0.0, 2.1, 4.4])
    squares, rhos = invariants._band_square(family.banded(0.7, ts))
    sites = np.array(family.region.sites)
    order = np.argsort(geometry.strip_depth(slope, which, sites), kind="stable")
    dof = (order[:, None] * sym.norb + np.arange(sym.norb)).ravel()
    b = family.bandwidth
    assert squares.shape == (3, 2 * b + 1, family.region.dof)
    for t, square, rho in zip(ts, squares, rhos):
        dense = family.operator(0.7, t).dense()
        a = dense[np.ix_(dof, dof)]
        want = a @ a
        assert not np.any(np.tril(want, -2 * b - 1))
        got = _dense_of_band(square)
        assert np.max(np.abs(got - want)) <= 1e-13 * rho ** 2
        assert rho == pytest.approx(np.abs(dense).sum(axis=1).max(), rel=1e-12)


@st.composite
def _hermitian_bands(draw):
    b = draw(st.integers(1, 6))
    n = draw(st.integers(b + 1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    band = rng.normal(size=(b + 1, n)) + 1j * rng.normal(size=(b + 1, n))
    band[0] = band[0].real
    for d in range(1, b + 1):
        band[d, n - d:] = 0
    return band * 10.0 ** draw(st.integers(-4, 4))


_PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@_PROPERTY
@given(band=_hermitian_bands(), above=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.5]))
def test_clearance_never_skips_a_band_with_an_eigenvalue_below_g(band, above):
    """g at the smallest |eigenvalue| or above it, by down to 1e-12
    relative: the clearance must fail, whatever the size or scale of the
    band.  At g = |eigenvalue| only the allowance eta keeps it failing."""
    smallest = np.min(np.abs(np.linalg.eigvalsh(_dense_of_band(band))))
    square, rho = invariants._band_square(band)
    assert not invariants._clears(square, rho, smallest * (1 + above))


@_PROPERTY
@given(band=_hermitian_bands())
def test_clearance_skips_a_band_whose_eigenvalues_clear_g(band):
    """min |eigenvalue| >= 1.001 g is proved, unless the band is so near
    singular (below 1e-4 rho) that rounding could hide the difference."""
    square, rho = invariants._band_square(band)
    smallest = np.min(np.abs(np.linalg.eigvalsh(_dense_of_band(band))))
    assume(smallest >= 1e-4 * rho)
    assert invariants._clears(square, rho, smallest / 1.001)


def test_edge_scan_margin_is_the_dense_row_sum(monkeypatch):
    """Each full-path strip after the first of a side is solved with the
    reach ``best`` + 1e-10 times the max absolute row sum of the dense strip,
    ``best`` the minimum of the strips solved before it."""
    calls, best = [], [math.inf]
    diagonalize, sharpen = spectra.diagonalize, spectra.sharpen_degeneracies

    def recorded(op, reach=math.inf):
        if reach == math.inf:
            best[0] = math.inf
        calls.append((reach, best[0], np.abs(op.dense()).sum(axis=1).max()))
        return diagonalize(op, reach)

    def tracked(sl, near, matrix=None):
        sl = sharpen(sl, near, matrix=matrix)
        counted = ~(1 - spectra.all_weights(sl, near) >= invariants.ATTRIBUTION_MIN)
        best[0] = min(best[0], np.min(np.abs(sl.eigenvalues[counted]), initial=math.inf))
        return sl

    monkeypatch.setattr(spectra, "diagonalize", recorded)
    monkeypatch.setattr(spectra, "sharpen_degeneracies", tracked)
    cl.edge_gap_scan(builtin_models()["product_example"].symbol,
                     SlopePair(Slope.rational(1, 2), Slope.plus_inf()), 8, (2, 2))
    finite = [(reach - b, rho) for reach, b, rho in calls if reach < math.inf]
    assert len(calls) - len(finite) == 2 and len(finite) >= 2
    # reach - best keeps only the high bits of a margin near 1e-10
    assert [m for m, _ in finite] == pytest.approx([1e-10 * r for _, r in finite], rel=1e-5)


def test_clearance_keeps_a_strip_with_a_cluster_straddling_zero(models, monkeypatch):
    """Sharpening rotates a cluster that straddles 0 to Rayleigh values
    below its smallest |eigenvalue|, so such a strip must take the full path
    however small the running minimum is: g never drops below half the
    cluster tolerance, and no strip with such a cluster clears that."""
    region = geometry.LatticeRegion([(0, 0), (1, 0), (2, 0)], 1)
    h = np.array([[0, 4e-5, 0], [4e-5, 0, 0], [0, 0, 1.0]], complex)
    op = AssembledOperator(sp.csr_matrix(h), region=region)
    sl = spectra.sharpen_degeneracies(
        spectra.diagonalize(op), lambda site: site[0] == 0, matrix=op.matrix)
    assert np.min(np.abs(sl.eigenvalues)) < 1e-12
    square, rho = invariants._band_square(np.array([[0, 0, 1.0], [4e-5, 0, 0]], complex))
    assert invariants._clears(square, rho, 1e-9)
    floor = spectra.DEGENERACY_CLUSTER_TOL / 2
    assert not invariants._clears(square, rho, floor + 1e-10 * rho)

    gs, clears = [], invariants._clears

    def recorded(square, rho, g):
        gs.append(g)
        return clears(square, rho, g)

    monkeypatch.setattr(invariants, "_clears", recorded)
    gap_a, _ = cl.edge_gap_scan(models["h1_stacked"].symbol, PAIR, 16, (6, 6))
    assert gap_a < 1e-12 and gs and min(gs) > floor


def test_clearance_refuses_a_band_with_nan():
    """A NaN, an infinity or an overflow fails the clearance, so such a
    strip would take the full path; symbols with a NaN are refused at load (see
    test_symbol.py::test_non_finite_entries_rejected), so none reaches a scan."""
    def clears(bad, where):
        band = np.array([[3.0, 1.0, 2.0, 3.0], [0.5, 0.5, 0.5, 0]], complex)
        band[where] = bad
        square, rho = invariants._band_square(band)
        return invariants._clears(square, rho, 0.5)

    for where in ((0, 0), (1, 1)):
        assert not clears(np.nan, where)  # a NaN propagates silently
        for bad in (np.inf, 1e200):  # an infinity or an overflow also warns
            with pytest.warns(RuntimeWarning):
                assert not clears(bad, where)


@pytest.mark.parametrize("seed", [201, 202, 203])
def test_edge_scan_takes_few_full_paths(models, monkeypatch, seed):
    """The clearance passes for most strips of a gapped product: at most 12
    of the 72 strips of a W=40, 6 by 6 scan are diagonalized.  A check that
    never passes keeps every minimum and only shows up here.  Only the first
    strip of each side is solved in full; every later one returns at most 8
    of its 160 eigenpairs."""
    h2 = models["h2_example"]
    h1 = symbol.perturb_onsite(models["h1_example"].symbol, 0.1, seed)
    sym = symbol.product_hamiltonian(h1, h2.symbol, h2.grading)
    calls, diagonalize = [], spectra.diagonalize

    def recorded(op, reach=math.inf):
        sl = diagonalize(op, reach)
        calls.append((op.region, reach, sl.eigenvalues.size))
        return sl

    monkeypatch.setattr(spectra, "diagonalize", recorded)
    gap_a, gap_b = cl.edge_gap_scan(sym, PAIR, 40, (6, 6))
    assert min(gap_a, gap_b) > 0.8
    assert 2 <= len(calls) <= 12
    sides = [[reach for _, reach, _ in side] for _, side in groupby(calls, lambda c: id(c[0]))]
    assert len(sides) == 2
    assert all(side[0] == math.inf and math.inf not in side[1:] for side in sides)
    assert max(size for _, reach, size in calls if reach < math.inf) <= 8


def _diagonal_op(vals):
    return AssembledOperator(sp.csr_matrix(np.diag(np.asarray(vals, dtype=complex))))


def test_partial_sharpening_keeps_whole_clusters_in_reach(monkeypatch):
    """After the first strip only the clusters whose hull meets
    (-best - margin, best + margin) are solved and sharpened:
    ``spectra.diagonalize(op, best + margin)`` keeps a cluster straddling 0
    even when both its ends lie beyond that reach, and a cluster that only
    the margin brings into it; clusters are never cut.  The 9e-5 chain runs
    past the first interval solved, so the solve widens it; a reach that
    holds nothing gives an empty slice."""
    solves, zheevr = [], spectra.lapack.zheevr
    monkeypatch.setattr(spectra.lapack, "zheevr",
                        lambda *a, **kw: solves.append(kw["vu"]) or zheevr(*a, **kw))
    chain = np.arange(-30, 31) * 9e-5            # one cluster from -2.7e-3 to 2.7e-3
    sl = spectra.diagonalize(_diagonal_op(np.concatenate(([-1.0], chain, [0.5]))), 1e-3 + 1e-10)
    assert np.array_equal(sl.eigenvalues, chain) and len(solves) >= 2
    best, margin = 0.5, 1e-8
    inside = [best + margin / 2, best + margin / 2 + 9e-5]
    op = _diagonal_op([-0.7, -best - 2 * margin, 0.2, 0.2 + 5e-5] + inside + [0.7])
    assert np.array_equal(spectra.diagonalize(op, best + margin).eigenvalues,
                          [0.2, 0.2 + 5e-5] + inside)
    # an interval past the row sum 0.7 is the full solve, cut the same way
    solves.clear()
    assert np.array_equal(spectra.diagonalize(op, 0.695).eigenvalues,
                          [-best - 2 * margin, 0.2, 0.2 + 5e-5] + inside)
    assert solves == []
    sl = spectra.diagonalize(_diagonal_op([-0.6, 0.6]), best + margin)
    assert sl.eigenvalues.shape == (0,) and sl.eigenvectors.shape == (2, 0)


def test_corner_flow_refuses_uncertified_family(models):
    with pytest.raises(GapClosedError, match="floor"):
        cl.corner_spectral_flow(models["h1_stacked"].symbol, PAIR, 12, n_t=8)
    with pytest.raises(ModelError):
        cl.corner_spectral_flow(qwz_model(-1.0), PAIR, 12)


def test_corner_flow_additive_under_direct_sum(models):
    """Direct-summing a trivially gapped block changes nothing."""
    padded = direct_sum(models["product_example"].symbol,
                        models["onsite_gapped"].symbol)
    net, detail = cl.corner_spectral_flow(padded, PAIR, 16, n_t=32)
    assert net == 1
    assert detail.edge_gaps is not None and min(detail.edge_gaps) > 0.9


def test_corner_flow_samples_every_solved_slice(monkeypatch, models):
    """At its default call the corner flow returns (t, eigenvalues, weights)
    of every solved slice, a refinement included, sorted by t; there is no
    ``keep_samples`` switch."""
    solved, window_solve, track_branches = [], spectra.diagonalize_window, spectra.track_branches

    def recorded(op, window):
        solved.append(op.t)
        return window_solve(op, window)

    def refined_once(slices, *args, refine_fn, **kwargs):
        refine_fn(0.1)  # before the first grid point, solved after the grid
        return track_branches(slices, *args, refine_fn=refine_fn, **kwargs)

    monkeypatch.setattr(spectra, "diagonalize_window", recorded)
    monkeypatch.setattr(spectra, "track_branches", refined_once)
    sym = models["product_example"].symbol
    net, detail = cl.corner_spectral_flow(sym, PAIR, 8, n_t=8)
    assert net == 1 and len(solved) == 9 and solved[-1] == 0.1
    assert [t for t, _, _ in detail.samples] == sorted(solved)
    assert all(w.shape == v.shape for _, v, w in detail.samples)
    assert any(v.size for _, v, _ in detail.samples)
    with pytest.raises(TypeError):
        cl.corner_spectral_flow(sym, PAIR, 8, n_t=8, keep_samples=True)


def test_merged_crossing_rows_ignore_branch_order():
    """Coincident crossings merge into one row whatever their branch order,
    which follows the solver's basis of a degenerate eigenspace."""
    raw = [Crossing(t=0.5, direction=1, weight=w) for w in (0.0, 1.0, 0.9, 1e-3)]
    raw.append(Crossing(t=2.0, direction=-1, weight=0.5))
    rows = invariants._merge_crossings(raw)
    assert rows == invariants._merge_crossings(raw[::-1])
    assert rows[0].member_weights == (0.0, 1e-3, 0.9, 1.0)
    assert rows[0].multiplicity == 4 and len(rows) == 2


def test_weak_invariants_values(models):
    assert cl.weak_invariants(models["product_example"].symbol) == (0, 0, 0)
    assert cl.weak_invariants(models["onsite_gapped"].symbol) == (0, 0, 0)
    assert cl.weak_invariants(models["h1_stacked"].symbol) == (0, 0, 1)
    with pytest.raises(ModelError):
        cl.weak_invariants(qwz_model(-1.0))
    # QWZ at mass -2 closes at the origin, the first grid point visited.
    with pytest.raises(GapClosedError, match=r"k=\(0\.000,0\.000,0\.000\)"):
        cl.weak_invariants(symbol.extend_trivially(qwz_model(-2.0)))


def test_weak_slot_matches_planted_factor():
    """Stacking a dim-2 symbol leaves its Chern number on the (1,2) slot
    with the opposite bookkeeping sign of chern_number."""
    for mass in (-1.0, 1.0):
        sym = qwz_model(mass)
        stacked = symbol.extend_trivially(sym)
        weak = cl.weak_invariants(stacked)
        assert weak[0] == weak[1] == 0
        assert weak[2] == -cl.chern_number(sym)


def test_bulk_edge_pair_values(models):
    g = models["h2_example"].grading
    h1 = models["h1_example"].symbol
    assert cl.bulk_edge_pair(h1, models["h2_example"].symbol, g) == (2, 1)
    assert cl.bulk_edge_pair(h1, models["h2_double_shift"].symbol, g) == (2, 2)
    assert cl.bulk_edge_pair(models["h1_trivial"].symbol,
                             models["h2_example"].symbol, g) == (2, 0)


def test_bulk_edge_pair_rejects_bad_factors(models):
    g = models["h2_example"].grading
    h2 = models["h2_example"].symbol
    with pytest.raises(ModelError):
        cl.bulk_edge_pair(h2, h2, g)
    with pytest.raises(ModelError):
        cl.bulk_edge_pair(models["h1_example"].symbol, qwz_model(-1.0), g)
    positive = HamiltonianSymbol(2, 1, {(0, 0): np.array([[2.0]])})
    with pytest.raises(ModelError, match="k1 = 0"):
        cl.bulk_edge_pair(positive, h2, g)
    with pytest.raises(GapClosedError):
        cl.bulk_edge_pair(qwz_model(-2.0), h2, g)


def test_compute_report_full_pipeline(models):
    g = models["h2_example"].grading
    report = cl.compute_report(
        models["product_example"].symbol, PAIR, W=16, edge_grid=(6, 6),
        L=10, n_t=16,
        factors=(models["h1_example"].symbol, models["h2_example"].symbol, g))
    assert report.corner_sf == 1
    assert report.chern_2dA == -1
    assert report.winding_1dAIII == -1
    assert report.kernel_signature == -1
    assert report.weak == (0, 0, 0)
    assert report.bulk_edge_pair == (2, 1)
    assert min(report.min_edge_gap_alpha, report.min_edge_gap_beta) > 0.9
    assert report.provenance["corner_skipped"] is None

    doc = report.to_dict()
    assert doc["corner_sf"] == 1
    assert doc["bulk_edge_pair"] == [2, 1]
    assert "window" in report.provenance


def test_compute_report_skips_corner_on_gapless_edge(models):
    report = cl.compute_report(models["h1_stacked"].symbol, PAIR,
                               W=16, edge_grid=(6, 6), L=10, n_t=16)
    assert report.corner_sf is None
    assert "not Fredholm" in report.provenance["corner_skipped"]
    assert report.weak == (0, 0, 1)


def _size_entry_points(models):
    """Each public entry point with one lattice size left free, as a function
    of that size returning a comparable value."""
    prod = models["product_example"].symbol
    h1, h2 = models["h1_example"].symbol, models["h2_example"].symbol
    grading = models["h2_example"].grading
    return {
        "edge_gap_scan": lambda n: cl.edge_gap_scan(prod, PAIR, n, (2, 2)),
        "corner_spectral_flow": lambda n: cl.corner_spectral_flow(prod, PAIR, n, n_t=8)[0],
        "compute_report_W": lambda n: cl.compute_report(
            prod, PAIR, W=n, edge_grid=2, L=8, n_t=8).to_json(),
        "compute_report_L": lambda n: cl.compute_report(
            prod, PAIR, W=8, edge_grid=2, L=n, n_t=8).to_json(),
        "kernel_signature": lambda n: cl.kernel_signature(h2, grading, W=n),
        "edge_spectral_flow": lambda n: cl.edge_spectral_flow(h1, W=n, n_t=8),
        "assemble_halfline": lambda n: assembly.assemble_halfline(h2, n).dense().tobytes(),
        "corner_spectral_flow_n_t": lambda n: cl.corner_spectral_flow(prod, PAIR, 8, n_t=n)[0],
        "edge_spectral_flow_n_t": lambda n: cl.edge_spectral_flow(h1, W=12, n_t=n),
        "compute_report_n_t": lambda n: cl.compute_report(
            prod, PAIR, W=8, edge_grid=2, L=8, n_t=n).to_json(),
        "chern_number": lambda n: cl.chern_number(h1, n),
        "winding_number": lambda n: cl.winding_number(h2, grading, n),
        "weak_invariants": lambda n: cl.weak_invariants(prod, n),
    }


@pytest.mark.parametrize("entry", ["edge_gap_scan", "corner_spectral_flow", "compute_report_W",
                                   "compute_report_L", "kernel_signature", "edge_spectral_flow",
                                   "assemble_halfline", "corner_spectral_flow_n_t",
                                   "edge_spectral_flow_n_t", "compute_report_n_t",
                                   "chern_number", "winding_number", "weak_invariants"])
def test_lattice_sizes_are_checked_one_way(models, entry):
    """A numpy integer size, t-grid or Bloch grid works like the Python int
    (and a report records it as one); a float or a bool is refused with
    GeometryError, so no sample grid stops short of closing its circle."""
    run = _size_entry_points(models)[entry]
    assert run(np.int64(8)) == run(8)
    for bad in (8.0, 12.5, True):
        with pytest.raises(GeometryError, match="must be a positive integer"):
            run(bad)


@pytest.mark.parametrize("patched, call, what", [
    ("_c1_field_strength", lambda m: cl.chern_number(m["h1_example"].symbol, 12),
     "Chern number"),
    ("_c1_field_strength", lambda m: cl.weak_invariants(m["product_example"].symbol, 12),
     r"weak invariant on axes \(0,1\)"),
    ("_halfline_kernel_states", lambda m: cl.kernel_signature(
        m["h2_example"].symbol, m["h2_example"].grading, W=12), "half-line kernel"),
], ids=["chern", "weak", "kernel"])
def test_refine_once_then_refuse(models, monkeypatch, patched, call, what):
    """A resolution too coarse at n is retried once at 2n, and refused with
    ResidualError naming the quantity and both sizes when 2n is too coarse."""
    sizes = []

    def too_coarse(*args):
        sizes.append(args[-1])
        raise invariants._RefineNeeded("too coarse")

    monkeypatch.setattr(invariants, patched, too_coarse)
    with pytest.raises(ResidualError, match=what + r" not certified at 12 .* at 24 "):
        call(models)
    assert sizes == [12, 24]


def test_chern_refines_a_near_singular_link_and_an_inadmissible_flux(monkeypatch):
    """Both Chern refinement triggers, unpatched: at grid 2 the QWZ model at
    mass -1 has a near-singular link, at grid 3 the one at mass +1 an
    inadmissible plaquette flux; each settles at twice its grid."""
    refused = []
    field_strength = invariants._c1_field_strength

    def recorded(sym, axes, n):
        try:
            return field_strength(sym, axes, n)
        except invariants._RefineNeeded as exc:
            refused.append((n, str(exc)))
            raise

    monkeypatch.setattr(invariants, "_c1_field_strength", recorded)
    value, _, grid = invariants._chern_detail(qwz_model(-1.0), 2)
    assert (value, grid) == (1, 4)
    assert refused == [(2, "near-singular link variable")]
    refused.clear()
    assert cl.chern_number(qwz_model(1.0), 3) == 1
    assert refused == [(3, "inadmissible plaquette flux")]


def test_winding_step_certificate_refines_then_refuses(models, monkeypatch):
    """At grid 3 the principal-branch phase steps of the double shift alias
    (their sum reads +1 where the winding is -2); the step certificate refuses
    3 and 6, and at 11 it refuses only the first grid and certifies 22."""
    g = models["h2_double_shift"].grading
    ds = models["h2_double_shift"].symbol
    grids = []
    bloch_grid = invariants._bloch_grid

    def spy(sym, axes, n):
        grids.append(n)
        return bloch_grid(sym, axes, n)

    monkeypatch.setattr(invariants, "_bloch_grid", spy)
    with pytest.raises(ResidualError, match=r"winding number not certified at 3 .* at 6 "):
        cl.winding_number(ds, g, grid=3)
    assert grids == [3, 6]
    grids.clear()
    assert cl.winding_number(ds, g, grid=11) == -2
    assert grids == [11, 22]
    with pytest.raises(ResidualError):
        cl.winding_number(ds, g, grid=2)


def test_corner_flow_builds_one_region_and_one_ordering(monkeypatch):
    """A flow builds its wedge region once and MMD-orders its pattern once."""
    calls = {"wedge_region": 0, "MMD_AT_PLUS_A": 0, "NATURAL": 0}
    wedge_region, splu = geometry.wedge_region, spectra.spla.splu

    def counted_region(*args, **kwargs):
        calls["wedge_region"] += 1
        return wedge_region(*args, **kwargs)

    def counted_splu(*args, permc_spec, **kwargs):
        calls[permc_spec] += 1
        return splu(*args, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(geometry, "wedge_region", counted_region)
    monkeypatch.setattr(spectra.spla, "splu", counted_splu)
    net, _ = invariants.corner_spectral_flow(
        builtin_models()["product_example"].symbol, PAIR, 8, n_t=8)
    assert net == 1
    assert calls["wedge_region"] == 1 and calls["MMD_AT_PLUS_A"] == 1
    assert calls["NATURAL"] >= 2 * 8 - 1


def test_edge_flow_builds_one_strip_family_and_tracks_finite_t(monkeypatch, models):
    """An edge flow builds one strip family, never folds or compresses per
    angle and never calls SuperLU: every slice, grid and refinement, takes
    one banded Cholesky clearance, and only the slices it does not clear are
    solved by ``spectra.diagonalize``.  It tracks a finite grid."""
    calls = {"strip_family": 0, "strip_region": 0, "splu": 0, "zpbtrf": 0, "refine": 0,
             "assemble_halfline": 0, "partial_bloch": 0}
    events, seen = [], {}
    clears, diagonalize = invariants._clears, spectra.diagonalize
    track_branches, crossings = spectra.track_branches, spectra.crossings

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def seen_clears(*args):
        events.append(clears(*args))
        return events[-1]

    def seen_diagonalize(op, *args):
        events.append(("diagonalize", op.t))
        return diagonalize(op, *args)

    def seen_track(slices, *args, refine_fn, **kwargs):
        seen["grid"] = [sl.t for sl in slices]
        return track_branches(slices, *args, refine_fn=counted("refine", refine_fn), **kwargs)

    def seen_crossings(track):
        seen["crossings"] = crossings(track)
        return seen["crossings"]

    for module, name in ((assembly, "strip_family"), (geometry, "strip_region"),
                         (spectra.spla, "splu"), (scipy.linalg.lapack, "zpbtrf"),
                         (assembly, "assemble_halfline"), (invariants, "partial_bloch"),
                         (symbol, "partial_bloch")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    monkeypatch.setattr(invariants, "_clears", seen_clears)
    monkeypatch.setattr(spectra, "diagonalize", seen_diagonalize)
    monkeypatch.setattr(spectra, "track_branches", seen_track)
    monkeypatch.setattr(spectra, "crossings", seen_crossings)
    h1 = models["h1_example"].symbol
    assert invariants.edge_spectral_flow(h1, W=12, n_t=12) == 1
    assert len(seen["grid"]) == 12 and np.all(np.isfinite(np.array(seen["grid"], dtype=float)))
    assert seen["crossings"] and all(np.isfinite(c.t) for c in seen["crossings"])
    # No overlap passes 1.01: every interval with a windowed state is bisected
    # _MAX_REFINE times before the flow refuses, so refinements are built too.
    monkeypatch.setattr(spectra, "OVERLAP_MIN", 1.01)
    with pytest.raises(TrackingError, match="ambiguous"):
        invariants.edge_spectral_flow(h1, W=12, n_t=12)
    assert calls["strip_family"] == calls["strip_region"] == 2 and calls["splu"] == 0
    assert calls["assemble_halfline"] == 0 and calls["partial_bloch"] == 0
    clearances = [e for e in events if e is True or e is False]
    assert calls["zpbtrf"] == len(clearances) == 2 * 12 + calls["refine"]
    assert calls["refine"] >= spectra._MAX_REFINE
    # Every solve follows the clearance of its own slice, which failed.
    solved = [i for i, e in enumerate(events) if e is False]
    assert [i + 1 for i in solved] == [i for i, e in enumerate(events) if e not in (True, False)]
    assert 0 < len(solved) < len(clearances)


def test_lost_crossing_breaks_zero_total_flow(monkeypatch, models):
    """Both flows refuse when the signed crossings of the loop do not sum to 0."""
    crossings = spectra.crossings
    monkeypatch.setattr(spectra, "crossings", lambda track: crossings(track)[1:])
    with pytest.raises(TrackingError, match="sum to"):
        invariants.corner_spectral_flow(models["product_example"].symbol, PAIR, 8, n_t=8)
    with pytest.raises(TrackingError, match="sum to"):
        invariants.edge_spectral_flow(models["h1_example"].symbol, W=12, n_t=12)


@pytest.mark.parametrize("n_t", [1, 2])
def test_flows_refuse_short_grids_before_any_slice(monkeypatch, models, n_t):
    """A t-grid of 1 or 2 points cannot close the circle: both flows raise
    TrackingError before a single slice is window-solved, or an edge slice
    squared."""
    def no_slice(*args, **kwargs):
        raise AssertionError("a slice was built")

    monkeypatch.setattr(spectra, "diagonalize_window", no_slice)
    with pytest.raises(TrackingError, match="at least 3 grid points"):
        invariants.corner_spectral_flow(models["product_example"].symbol, PAIR, 8, n_t=n_t)
    monkeypatch.setattr(spectra, "diagonalize", no_slice)
    monkeypatch.setattr(invariants, "_band_square", no_slice)
    with pytest.raises(TrackingError, match="at least 3 grid points"):
        invariants.edge_spectral_flow(models["h1_example"].symbol, W=12, n_t=n_t)
    with pytest.raises(GeometryError):
        invariants.corner_spectral_flow(models["product_example"].symbol, PAIR, 8, n_t=0)


def test_attribution_rule_boundaries():
    """At least 0.9 on the mask counts, at most 0.1 does not, and anything
    between (NaN included) raises the error the caller passes."""
    got = invariants._attributed([0.0, 0.1, 0.9, 1.0], TrackingError)
    assert got.tolist() == [False, False, True, True]
    for bad in (0.5, 0.11, 0.89, np.nan):
        with pytest.raises(TrackingError, match="1 state"):
            invariants._attributed([1.0, bad, 0.0], TrackingError)


def _rotating_pair(phase):
    """Two sites, H(t) = cos t (cos(t - phase) sz + sin(t - phase) sx): the
    states crossing 0 at t = pi/2 and 3pi/2 sit on one site each for
    phase = pi/2, and spread evenly over both for phase = 0.  Returns the
    slice solve of :func:`invariants._tracked_crossings`, window-solved at
    0.5 as the corner flow solves its slices; its eigenvalues +-cos t never
    meet on the grid, so there is no cluster to sharpen."""
    region = geometry.LatticeRegion([(0, 0), (1, 0)], 1)
    sz, sx = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])

    def solve(ts):
        for t in ts:
            h = np.cos(t) * (np.cos(t - phase) * sz + np.sin(t - phase) * sx)
            op = AssembledOperator(sp.csr_matrix(h.astype(complex)), region=region, t=t)
            yield spectra.diagonalize_window(op, 0.5)

    return solve


@pytest.mark.parametrize("mask, net", [
    (lambda s: s == (0, 0), -2), (lambda s: s == (1, 0), 2), (lambda s: True, 0),
], ids=["site-0", "site-1", "both"])
def test_tracked_crossings_count_attributed_states(mask, net):
    """The slice builder of both flows sums the directions of the crossings
    whose state sits on the mask: two down on site 0, two up on site 1."""
    got, found, samples = invariants._tracked_crossings(_rotating_pair(np.pi / 2), 8, 0.5,
                                                        mask, 2.0)
    assert got == net and len(found) == 4
    assert [t for t, _, _ in samples] == pytest.approx(sorted(invariants._offset_grid(8)))


def test_tracked_crossings_refuse_a_state_split_across_the_mask(monkeypatch):
    """A crossing state of weight 0.5 on the mask is neither at the corner
    nor away from it: both flows' slice builder raises TrackingError."""
    crossings, weights = spectra.crossings, []

    def seen(track):
        found = crossings(track)
        weights.extend(c.weight for c in found)
        return found

    def mask(site):
        return site == (0, 0)

    monkeypatch.setattr(spectra, "crossings", seen)
    with pytest.raises(TrackingError, match="between 0.1 and 0.9"):
        invariants._tracked_crossings(_rotating_pair(0.0), 8, 0.5, mask, 2.0)
    assert len(weights) == 4 and np.allclose(weights, 0.5)
