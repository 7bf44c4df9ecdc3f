"""Eigensolvers, localization weights, degeneracy sharpening, tracking."""

import numpy as np
import pytest
import scipy.sparse as sp

from cornerlab import EigensolverError, TrackingError, assembly, geometry, spectra, symbol
from cornerlab.spectra import (
    SpectralSlice,
    all_weights,
    crossings,
    diagonalize,
    diagonalize_window,
    localization_weight,
    sharpen_degeneracies,
    track_branches,
)

from oracles import oracle_flow_smalls


def _random_hermitian_op(n, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = 0.5 * (raw + raw.conj().T)
    return assembly.AssembledOperator(sp.csr_matrix(h), "test")


def test_dense_diagonalize_reconstructs():
    for seed in range(5):
        op = _random_hermitian_op(60, seed)
        sl = diagonalize(op)
        h = op.dense()
        rebuilt = (sl.eigenvectors * sl.eigenvalues) @ sl.eigenvectors.conj().T
        assert np.max(np.abs(rebuilt - h)) < 1e-10
        assert np.all(np.diff(sl.eigenvalues) >= 0)


def test_eigenvalues_must_be_ascending():
    with pytest.raises(EigensolverError):
        SpectralSlice(np.array([1.0, 0.0]), None, "test")


def test_window_solver_matches_dense_at_degenerate_crossing():
    """Window solver vs dense on a corner section with 4-fold degeneracies.

    The double-shift product at this angle puts two exactly 4-fold
    degenerate levels right next to zero; the window solver has to
    resolve the full multiplicity, orthonormally, or the flow counts
    built on top of it silently drop states.
    """
    models = symbol.builtin_models()
    g = models["h2_example"].grading
    sym = symbol.product_hamiltonian(
        models["h1_example"].symbol, models["h2_double_shift"].symbol, g)
    pair = geometry.SlopePair(geometry.Slope.rational(0, 1), geometry.Slope.plus_inf())
    t = 2.0 * np.pi * 63.5 / 64.0
    op = assembly.assemble_corner(sym, pair, 24, t)

    sl = diagonalize_window(op, 0.45)
    dense_vals = np.linalg.eigvalsh(op.dense())
    dense_inside = dense_vals[np.abs(dense_vals) <= 0.45]

    for v in dense_inside:
        assert np.min(np.abs(sl.eigenvalues - v)) < 1e-7
    assert sl.eigenvalues.size >= dense_inside.size

    lam = 0.04906767
    assert np.sum(np.abs(dense_inside - lam) < 1e-6) == 4
    assert np.sum(np.abs(dense_inside + lam) < 1e-6) == 4

    gram = sl.eigenvectors.conj().T @ sl.eigenvectors
    assert np.max(np.abs(gram - np.eye(sl.eigenvalues.size))) < 1e-10


@pytest.mark.parametrize("L", [10, 18])
def test_window_solver_empty_window(L):
    op = assembly.assemble_corner(
        symbol.builtin_models()["onsite_gapped"].symbol,
        geometry.SlopePair(geometry.Slope.rational(0, 1), geometry.Slope.plus_inf()),
        L, 1.0)
    sl = diagonalize_window(op, 0.45)
    assert sl.eigenvalues.size == 0


def _block_diagonal_op(eigenvalues, seed):
    """Sparse Hermitian operator of randomly rotated 2x2 blocks with given spectrum."""
    rng = np.random.default_rng(seed)
    blocks = []
    for pair in rng.permutation(eigenvalues).reshape(-1, 2):
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        blocks.append(q @ np.diag(pair) @ q.conj().T)
    h = sp.block_diag(blocks, format="csr")
    return assembly.AssembledOperator(0.5 * (h + h.conj().T), "test")


@pytest.mark.parametrize("n", [40, 200, 720])
@pytest.mark.parametrize("on_shift", [False, True])
def test_window_solver_inertia_count(n, on_shift):
    """Exact count and full coverage, with eigenvalues at and next to the shifts.

    Eigenvalues: a 4-fold pair at +-0.2, +-1.04w and +-1.06w just inside
    and outside the counting shifts 1.05w, optionally +-1.05w(1 -+ 1e-9)
    right on them, and the rest spread over +-[1, 3].
    """
    w = 0.45
    special = [0.2] * 4 + [-0.2] * 4 + [1.04 * w, -1.04 * w, 1.06 * w, -1.06 * w]
    if on_shift:
        special += [s * 1.05 * w * (1 + d) for s in (1, -1) for d in (1e-9, -1e-9)]
    rng = np.random.default_rng(n)
    rest = rng.uniform(1.0, 3.0, n - len(special)) * rng.choice([-1.0, 1.0], n - len(special))
    eigenvalues = np.concatenate([special, rest])
    op = _block_diagonal_op(eigenvalues, seed=n)

    sl = diagonalize_window(op, w)

    dense = np.linalg.eigvalsh(op.dense())
    inside = np.sort(dense[np.abs(dense) <= w])
    got = sl.eigenvalues[np.abs(sl.eigenvalues) <= w]
    assert got.size == inside.size
    assert np.allclose(got, inside, atol=1e-9)
    gram = sl.eigenvectors.conj().T @ sl.eigenvectors
    assert np.max(np.abs(gram - np.eye(sl.eigenvalues.size))) < 1e-10
    if not on_shift:
        assert sl.eigenvalues.size == np.count_nonzero(np.abs(dense) <= 1.05 * w)


def _zero_eigenvalue_op():
    """Diagonal with exact zeros: A itself is exactly singular."""
    diagonal = np.tile([0.0, 0.2, -0.2, 2.0, -2.0], 8).astype(complex)
    return assembly.AssembledOperator(sp.diags(diagonal, format="csr"), "test")


def _chiral_op():
    """Blocks [[0, a], [conj(a), 0]] (eigenvalues +-|a|): A has a zero diagonal."""
    rng = np.random.default_rng(3)
    size = np.concatenate([[0.1, 0.3, 0.3], rng.uniform(1.0, 3.0, 17)])
    hop = size * np.exp(2j * np.pi * rng.uniform(size=size.size))
    blocks = [np.array([[0.0, a], [np.conj(a), 0.0]]) for a in hop]
    return assembly.AssembledOperator(sp.block_diag(blocks, format="csr"), "test")


@pytest.mark.parametrize("make_op, singular", [(_zero_eigenvalue_op, True),
                                               (_chiral_op, False)])
def test_window_solver_shift_zero_factor(make_op, singular):
    """The solve factor at shift 0: exactly singular (the solver must retry at
    a tiny shift) or zero-diagonal (SuperLU must pivot off the diagonal)."""
    op = make_op()
    csc = op.matrix.tocsc()
    if singular:
        with pytest.raises(EigensolverError, match="singular"):
            spectra._factor(csc, 0.0)
    else:
        lu = spectra._factor(csc, 0.0)
        assert not np.array_equal(lu.perm_r, lu.perm_c)

    sl = diagonalize_window(op, 0.45)

    dense = np.linalg.eigvalsh(op.dense())
    inside = dense[np.abs(dense) <= 1.05 * 0.45]
    assert inside.size > 0 and sl.eigenvalues.size == inside.size
    assert np.allclose(sl.eigenvalues, inside, atol=1e-12)
    gram = sl.eigenvectors.conj().T @ sl.eigenvectors
    assert np.max(np.abs(gram - np.eye(sl.eigenvalues.size))) < 1e-10


def test_window_solver_real_matrix():
    """A real sparse matrix goes through the same complex solve path."""
    op = assembly.AssembledOperator(
        sp.diags(np.tile([0.1, -0.1, 2.0, -2.0], 5), format="csr"), "test")

    sl = diagonalize_window(op, 0.45)

    dense = np.linalg.eigvalsh(op.dense())
    assert np.allclose(sl.eigenvalues, dense[np.abs(dense) <= 0.45], atol=1e-12)
    assert np.allclose(sl.eigenvalues, [-0.1] * 5 + [0.1] * 5, atol=1e-12)
    gram = sl.eigenvectors.conj().T @ sl.eigenvectors
    assert np.max(np.abs(gram - np.eye(sl.eigenvalues.size))) < 1e-10


@pytest.mark.parametrize("window", [float("nan"), -0.45, 0.0, float("inf")])
def test_window_solver_rejects_bad_window(window):
    op = _block_diagonal_op([0.1, -0.1, 2.0, -2.0], seed=0)
    with pytest.raises(ValueError, match="window"):
        diagonalize_window(op, window)


def test_localization_weights():
    region = geometry.LatticeRegion([(0, 0), (7, 0)], 2)
    vecs = np.eye(4, dtype=complex)
    sl = SpectralSlice(np.zeros(4), vecs, "test", region=region)
    w = all_weights(sl, lambda s: s[0] == 0)
    assert np.allclose(w, [1.0, 1.0, 0.0, 0.0])
    assert localization_weight(sl, 0, lambda s: s[0] == 0) == pytest.approx(1.0)
    with pytest.raises(IndexError):
        localization_weight(sl, 4, lambda s: True)


def test_sharpen_degeneracies_splits_mixed_corner_pair():
    region = geometry.LatticeRegion([(0, 0), (9, 0)], 1)
    c, s = np.cos(0.7), np.sin(0.7)
    mixed = np.array([[c, -s], [s, c]], dtype=complex)
    sl = SpectralSlice(np.zeros(2), mixed, "test", region=region)
    out = sharpen_degeneracies(sl, lambda site: site[0] == 0)
    w = all_weights(out, lambda site: site[0] == 0)
    assert np.allclose(sorted(w), [0.0, 1.0], atol=1e-12)
    # spanned space unchanged
    proj_in = mixed @ mixed.conj().T
    proj_out = out.eigenvectors @ out.eigenvectors.conj().T
    assert np.allclose(proj_in, proj_out, atol=1e-12)


def test_sharpen_degeneracies_keeps_separated_levels():
    region = geometry.LatticeRegion([(0, 0), (9, 0)], 1)
    sl = SpectralSlice(np.array([-1.0, 1.0]), np.eye(2, dtype=complex),
                       "test", region=region)
    out = sharpen_degeneracies(sl, lambda site: site[0] == 0)
    assert out is sl


def test_sharpen_degeneracies_rayleigh_values():
    region = geometry.LatticeRegion([(0, 0), (9, 0)], 1)
    h = np.diag([2e-5, -2e-5]).astype(complex)
    vals, vecs = np.linalg.eigh(h)
    mix = np.array([[1, 1], [-1, 1]], dtype=complex) / np.sqrt(2)
    sl = SpectralSlice(vals, vecs @ mix, "test", region=region)
    out = sharpen_degeneracies(sl, lambda site: site[0] == 0, matrix=h)
    assert np.allclose(np.sort(out.eigenvalues), vals, atol=1e-12)


def _rotated_pair_slices(n_t, omega=1.0):
    """sin/-sin bands in a fixed rotated basis over the offset circle grid."""
    theta = 0.3
    u = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]], dtype=complex)
    grid = (np.arange(n_t) + 0.5) * 2 * np.pi / n_t
    slices = []
    for t in grid:
        h = u @ np.diag([np.sin(omega * t), -np.sin(omega * t)]) @ u.conj().T
        vals, vecs = np.linalg.eigh(h)
        slices.append(SpectralSlice(vals, vecs, "test", t=float(t)))
    return slices


def test_tracking_counts_synthetic_crossings():
    slices = _rotated_pair_slices(64)
    track = track_branches(slices, window=0.5)
    found = crossings(track)
    net = sum(c.direction for c in found)
    assert len(found) == 4
    assert net == 0
    ups = sorted(c.t for c in found if c.direction == 1)
    downs = sorted(c.t for c in found if c.direction == -1)
    for t_list in (ups, downs):
        assert len(t_list) == 2
        dist = [min(t, abs(t - np.pi), 2 * np.pi - t) for t in t_list]
        assert max(dist) < 1e-3

    theta = 0.3
    u = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]])
    assert net == oracle_flow_smalls(
        lambda t: u @ np.diag([np.sin(t), -np.sin(t)]) @ u.conj().T)


def test_tracking_needs_three_points_and_sorted_grid():
    slices = _rotated_pair_slices(64)
    with pytest.raises(TrackingError):
        track_branches(slices[:2], window=0.5)
    shuffled = [slices[0], slices[2], slices[1]]
    with pytest.raises(TrackingError):
        track_branches(shuffled, window=0.5)
    bare = SpectralSlice(slices[1].eigenvalues, None, "test", t=slices[1].t)
    with pytest.raises(TrackingError, match="eigenvectors"):
        track_branches([slices[0], bare, slices[2]], window=0.5)


def test_tracking_ambiguity_raises_without_refinement():
    e0 = np.array([[1.0], [0.0]], dtype=complex)
    e1 = np.array([[0.0], [1.0]], dtype=complex)
    slices = [
        SpectralSlice(np.array([0.0]), e0, "test", t=0.5),
        SpectralSlice(np.array([0.0]), e1, "test", t=2.5),
        SpectralSlice(np.array([0.0]), e0, "test", t=4.5),
    ]
    with pytest.raises(TrackingError, match="ambiguous"):
        track_branches(slices, window=0.5)


def test_tracking_refinement_resolves_fast_rotation():
    def make(t):
        th = 0.6 * t
        vec = np.array([[np.cos(th)], [np.sin(th)]], dtype=complex)
        return SpectralSlice(np.array([0.1]), vec, "test", t=float(t))

    grid = [0.5, 2.5, 4.5]
    slices = [make(t) for t in grid]
    with pytest.raises(TrackingError):
        track_branches(slices, window=0.5)
    track = track_branches(slices, window=0.5, refine_fn=make)
    assert len(crossings(track)) == 0
    assert sum(len(pairs) for pairs in track.links) == 3
