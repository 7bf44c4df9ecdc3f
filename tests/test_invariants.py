"""Bulk invariants, edge diagnostics, corner flow, and the report."""

import json

import numpy as np
import pytest
import scipy.sparse as sp

import cornerlab as cl
from cornerlab import GapClosedError, ModelError, geometry, invariants, spectra, symbol
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


def test_kernel_signature_values_and_w_independence(models):
    g = models["h2_example"].grading
    h2 = models["h2_example"].symbol
    ds = models["h2_double_shift"].symbol
    assert cl.kernel_signature(h2, g, W=20) == cl.kernel_signature(h2, g, W=40) == -1
    assert cl.kernel_signature(ds, g, W=20) == cl.kernel_signature(ds, g, W=40) == -2
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


@pytest.mark.parametrize("grid", [(0, 0), (0, 4), 0, (-1, 3)])
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


def test_strip_bound_covers_sharpened_cluster_straddling_zero():
    """Sharpening rotates a cluster that straddles 0 to Rayleigh values
    below its smallest |eigenvalue|, so the screen bounds such a strip by 0;
    a strip without one is bounded by its smallest |eigenvalue| less margin."""
    region = geometry.LatticeRegion([(0, 0), (1, 0), (2, 0)], 1)
    h = np.array([[0, 4e-5, 0], [4e-5, 0, 0], [0, 0, 1.0]], complex)
    op = AssembledOperator(sp.csr_matrix(h), "test", region=region)
    sl = spectra.sharpen_degeneracies(
        spectra.diagonalize(op), lambda site: site[0] == 0, matrix=op.matrix)
    assert np.min(np.abs(sl.eigenvalues)) < 1e-12
    assert invariants._strip_lower_bound(op) == 0.0
    gapped = AssembledOperator(
        sp.diags(np.array([-0.3, 0.2, 0.2 + 5e-5, 2.0], complex), format="csr"), "test")
    assert invariants._strip_lower_bound(gapped) == pytest.approx(0.2 - 2e-10, abs=1e-15)


def test_corner_flow_refuses_uncertified_family(models):
    with pytest.raises(GapClosedError, match="floor"):
        cl.corner_spectral_flow(models["h1_stacked"].symbol, PAIR, 12, n_t=8)
    with pytest.raises(GapClosedError, match="window"):
        cl.corner_spectral_flow(models["product_example"].symbol, PAIR, 12,
                                n_t=8, window=0.6)
    with pytest.raises(GapClosedError, match="window"):
        cl.corner_spectral_flow(models["product_example"].symbol, PAIR, 12,
                                n_t=8, window=float("nan"))
    with pytest.raises(ModelError):
        cl.corner_spectral_flow(qwz_model(-1.0), PAIR, 12)


def test_corner_flow_additive_under_direct_sum(models):
    """Direct-summing a trivially gapped block changes nothing."""
    padded = direct_sum(models["product_example"].symbol,
                        models["onsite_gapped"].symbol)
    net, detail = cl.corner_spectral_flow(padded, PAIR, 16, n_t=32)
    assert net == 1
    assert detail.edge_gaps is not None and min(detail.edge_gaps) > 0.9


def test_merged_crossing_rows_ignore_branch_order():
    """Coincident crossings merge into one row whatever their branch order,
    which follows the solver's basis of a degenerate eigenspace."""
    raw = [Crossing(t=0.5, direction=1, weight=w) for w in (0.0, 1.0, 0.9, 1e-3)]
    raw.append(Crossing(t=2.0, direction=-1, weight=None))
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
