"""Eigensolvers, localization weights, degeneracy sharpening, tracking."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

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

from oracles import oracle_assignment, oracle_flow_smalls


def _random_hermitian_op(n, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = 0.5 * (raw + raw.conj().T)
    return assembly.AssembledOperator(sp.csr_matrix(h))


def test_dense_diagonalize_reconstructs():
    for seed in range(5):
        op = _random_hermitian_op(60, seed)
        sl = diagonalize(op)
        h = op.dense()
        rebuilt = (sl.eigenvectors * sl.eigenvalues) @ sl.eigenvectors.conj().T
        assert np.max(np.abs(rebuilt - h)) < 1e-10
        assert np.all(np.diff(sl.eigenvalues) >= 0)


def test_dense_residual_check_covers_every_pair(monkeypatch):
    """A 300-dof solve whose eigenvector at index 1 is wrong is refused; a
    check of 8 evenly spaced pairs (0, 42, 85, ...) would not see it."""
    op = _random_hermitian_op(300, 7)
    eigh = np.linalg.eigh

    def corrupted(matrix):
        vals, vecs = eigh(matrix)
        vecs = vecs.copy()
        vecs[:, 1] = vecs[:, 2]
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eigh", corrupted)
    with pytest.raises(EigensolverError, match="residual"):
        diagonalize(op)


def test_eigenvalues_must_be_ascending():
    with pytest.raises(EigensolverError, match="ascending"):
        SpectralSlice(np.array([1.0, 0.0]), np.eye(2))


@pytest.mark.parametrize("vecs", [None, np.ones(2), np.eye(2)[:, :1], np.ones((2, 2, 1))],
                         ids=["none", "1-D", "one-column-short", "3-D"])
def test_slice_needs_one_eigenvector_column_per_eigenvalue(vecs):
    with pytest.raises(EigensolverError, match="eigenvectors"):
        SpectralSlice(np.array([0.0, 1.0]), vecs)


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
    return assembly.AssembledOperator(0.5 * (h + h.conj().T))


@pytest.mark.parametrize("n", [40, 200, 720])
@pytest.mark.parametrize("extra", [False, True, "crowded", "on_sizing"])
def test_window_solver_inertia_count(n, extra):
    """Exact count and full coverage, with eigenvalues at and next to the shifts.

    Eigenvalues: a 4-fold pair at +-0.2, +-1.04w and +-1.06w just inside
    and outside the counting shifts 1.05w, and the rest spread over +-[1, 3].
    ``extra`` adds: nothing (False); +-1.05w(1 -+ 1e-9) right on the
    counting shifts (True); 12 more in the annulus (1.05w, 2.1w], so the
    block's cap of 8 binds ("crowded"); or +-2.1w(1 -+ 1e-9) right on the
    sizing shifts ("on_sizing").
    """
    w = 0.45
    special = [0.2] * 4 + [-0.2] * 4 + [1.04 * w, -1.04 * w, 1.06 * w, -1.06 * w]
    if extra is True:
        special += [s * 1.05 * w * (1 + d) for s in (1, -1) for d in (1e-9, -1e-9)]
    elif extra == "crowded":
        special += list(np.linspace(1.1, 2.0, 6) * w) + list(np.linspace(-2.05, -1.15, 6) * w)
    elif extra == "on_sizing":
        special += [s * 2.1 * w * (1 + d) for s in (1, -1) for d in (1e-9, -1e-9)]
    rng = np.random.default_rng(n)
    rest = rng.uniform(1.0, 3.0, n - len(special)) * rng.choice([-1.0, 1.0], n - len(special))
    eigenvalues = np.concatenate([special, rest])
    op = _block_diagonal_op(eigenvalues, seed=n)

    sl = diagonalize_window(op, w)

    dense = np.linalg.eigvalsh(op.dense())
    if extra == "crowded":
        assert np.count_nonzero((np.abs(dense) > 1.05 * w) & (np.abs(dense) <= 2.1 * w)) >= 10
    inside = np.sort(dense[np.abs(dense) <= w])
    got = sl.eigenvalues[np.abs(sl.eigenvalues) <= w]
    assert got.size == inside.size
    assert np.allclose(got, inside, atol=1e-9)
    gram = sl.eigenvectors.conj().T @ sl.eigenvectors
    assert np.max(np.abs(gram - np.eye(sl.eigenvalues.size))) < 1e-10
    if extra is not True:
        assert sl.eigenvalues.size == np.count_nonzero(np.abs(dense) <= 1.05 * w)


class _CountedSolves:
    """A factorization whose ``solve`` records the width of each block it gets."""

    def __init__(self, lu, widths):
        self._lu, self._widths = lu, widths

    def __getattr__(self, name):
        return getattr(self._lu, name)

    def solve(self, rhs):
        self._widths.append(rhs.shape[1])
        return self._lu.solve(rhs)


def test_window_solver_certificate_cost(monkeypatch):
    """Factorizations per slice: 2 counts for an empty window; for an occupied
    one 2 counts, 2 sizing counts at -+2.1w and 1 solve factor at 0, whose
    first solve gets ``count + min(annulus, 8)`` columns.  A failing sizing
    count falls back to ``count + 8`` and still returns the dense pairs.

    Solves per sweep (between two QR steps): 2, the Chebyshev filter, on
    every spectrum: an annulus of at most 8 (``few``, and ``on_sizing`` with
    unwanted eigenvalues right on the filter's interval edge +-2.1w), a
    crowded one (``crowded``) and a failing sizing count."""
    w, edge = 0.45, 1.05 * 0.45
    counted, factored, widths, fail_at, solves = [], [], [], [], []
    count_below, factor, qr = spectra._count_below, spectra._factor, np.linalg.qr

    def counting(pattern, values, shift):
        counted.append(shift)
        if shift in fail_at:
            raise EigensolverError("forced")
        return count_below(pattern, values, shift)

    def factoring(pattern, values, *shifts):
        factored.append(shifts[0])
        lu, shift = factor(pattern, values, *shifts)
        return _CountedSolves(lu, widths), shift

    def sweep_end(a, *args, **kwargs):
        solves.append(len(widths))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(spectra, "_count_below", counting)
    monkeypatch.setattr(spectra, "_factor", factoring)

    empty = _block_diagonal_op([1.0, -1.0, 1.5, -1.5, 2.0, -2.0], seed=0)
    assert diagonalize_window(empty, w).eigenvalues.size == 0
    assert counted == factored == [edge, -edge] and widths == []

    few = [0.1, -0.1, 0.2, -0.2, 0.6, -0.7] + [2.5, -2.5] * 6
    crowded = [0.1, -0.1] + list(np.linspace(0.5, 0.9, 10)) + [2.5, -2.5] * 6
    on_sizing = few + [s * 2 * edge * (1 + d) for s in (1, -1) for d in (1e-9, -1e-9)]
    for spectrum, fail in [(few, []), (on_sizing, []), (crowded, []), (few, [2 * edge])]:
        op = _block_diagonal_op(spectrum, seed=1)
        for log in (counted, factored, widths, solves):
            log.clear()
        fail_at[:] = fail
        monkeypatch.setattr(np.linalg, "qr", sweep_end)
        sl = diagonalize_window(op, w)
        monkeypatch.setattr(np.linalg, "qr", qr)
        dense = np.linalg.eigvalsh(op.dense())
        count = np.count_nonzero(np.abs(dense) <= edge)
        annulus = np.count_nonzero(np.abs(dense) < 2 * edge) - count
        assert (annulus > 8) == (spectrum is crowded)
        sizing = [] if fail else [2 * edge, -2 * edge]
        assert counted == [edge, -edge, 2 * edge] + sizing[1:]
        assert factored == [edge, -edge] + sizing + [0.0]
        assert widths[0] == count + (8 if fail else min(annulus, 8))
        assert solves == list(range(2, len(widths) + 1, 2))
        assert np.allclose(sl.eigenvalues, dense[np.abs(dense) <= edge], atol=1e-12)
        gram = sl.eigenvectors.conj().T @ sl.eigenvectors
        assert np.max(np.abs(gram - np.eye(count))) < 1e-10


def test_factor_shell_reuse_keeps_earlier_factors():
    """Every factorization on a pattern writes into one CSC shell; an LU taken
    before a later shift overwrote the shell still solves its own matrix."""
    op = _real_sparse_op()
    pattern, values = spectra.FactorPattern.of(op.matrix)
    dense = op.dense()
    rhs = np.random.default_rng(7).standard_normal((dense.shape[0], 3)) + 0j
    factors = [spectra._factor(pattern, values, shift) for shift in (0.3, -1.1, 2.4)]
    assert [shift for _, shift in factors] == [0.3, -1.1, 2.4]
    # The first factorization orders the pattern and solves in the original
    # order; later ones factor the pre-ordered matrix.
    solutions = [factors[0][0].solve(rhs)]
    solutions += [lu.solve(rhs[pattern.order])[pattern.rank] for lu, _ in factors[1:]]
    for (_, shift), got in zip(factors, solutions):
        assert np.allclose((dense - shift * np.eye(dense.shape[0])) @ got, rhs, atol=1e-9)


def _zero_eigenvalue_op():
    """Diagonal with exact zeros: A itself is exactly singular."""
    diagonal = np.tile([0.0, 0.2, -0.2, 2.0, -2.0], 8).astype(complex)
    return assembly.AssembledOperator(sp.diags(diagonal, format="csr"))


def _chiral_op():
    """Blocks [[0, a], [conj(a), 0]] (eigenvalues +-|a|): A has a zero diagonal."""
    rng = np.random.default_rng(3)
    size = np.concatenate([[0.1, 0.3, 0.3], rng.uniform(1.0, 3.0, 17)])
    hop = size * np.exp(2j * np.pi * rng.uniform(size=size.size))
    blocks = [np.array([[0.0, a], [np.conj(a), 0.0]]) for a in hop]
    return assembly.AssembledOperator(sp.block_diag(blocks, format="csr"))


@pytest.mark.parametrize("make_op, singular", [(_zero_eigenvalue_op, True),
                                               (_chiral_op, False)])
def test_window_solver_shift_zero_factor(make_op, singular):
    """The solve factor at shift 0: exactly singular (the solver must retry at
    a tiny shift) or zero-diagonal (SuperLU must pivot off the diagonal)."""
    op = make_op()
    pattern, values = spectra.FactorPattern.of(op.matrix)
    if singular:
        with pytest.raises(EigensolverError, match="singular"):
            spectra._factor(pattern, values, 0.0)
    else:
        lu, _ = spectra._factor(pattern, values, 0.0)
        assert not np.array_equal(lu.perm_r, lu.perm_c)

    sl = diagonalize_window(op, 0.45)

    dense = np.linalg.eigvalsh(op.dense())
    inside = dense[np.abs(dense) <= 1.05 * 0.45]
    assert inside.size > 0 and sl.eigenvalues.size == inside.size
    assert np.allclose(sl.eigenvalues, inside, atol=1e-12)
    gram = sl.eigenvectors.conj().T @ sl.eigenvectors
    assert np.max(np.abs(gram - np.eye(sl.eigenvalues.size))) < 1e-10


def _real_sparse_op():
    """A real symmetric sparse matrix: the counts run on its complex copy."""
    rng = np.random.default_rng(5)
    raw = sp.random(60, 60, density=0.08, random_state=rng)
    return assembly.AssembledOperator(
        (raw + raw.T + sp.diags(rng.uniform(-2.0, 2.0, 60))).tocsr())


def test_preordered_counts_equal_dense_counts():
    """Sylvester counts on the pre-ordered pattern equal dense eigenvalue counts.

    Two points of one L=8 corner family share one pattern; the real matrix
    and the zero-diagonal chiral operator get patterns of their own.  Every
    count after a pattern's first runs on the pre-ordered matrix.
    """
    pair = geometry.SlopePair(geometry.Slope.rational(0, 1), geometry.Slope.plus_inf())
    family = assembly.corner_family(symbol.builtin_models()["product_example"].symbol, pair, 8)
    ops = [family.operator(t=t) for t in (0.3, 2.9)]
    cases = [(family.pattern, op.matrix.data, op) for op in ops]
    cases += [(*spectra.FactorPattern.of(op.matrix), op)
              for op in (_real_sparse_op(), _chiral_op())]
    for pattern, values, op in cases:
        dense = np.linalg.eigvalsh(op.dense())
        for shift in (-2.5, -0.4725, -0.2, 0.05, 0.2, 0.4725, 1.7):
            assert spectra._count_below(pattern, values, shift) == \
                np.count_nonzero(dense < shift)
            assert pattern.order is not None
        assert np.array_equal(pattern.order[pattern.rank], np.arange(dense.size))
        # The kept order is a copy, not a view that would keep a SuperLU factor alive.
        assert pattern.rank.base is None


def test_window_solver_real_matrix():
    """A real sparse matrix goes through the same complex solve path."""
    op = assembly.AssembledOperator(
        sp.diags(np.tile([0.1, -0.1, 2.0, -2.0], 5), format="csr"))

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
    sl = SpectralSlice(np.zeros(4), vecs, region=region)
    w = all_weights(sl, lambda s: s[0] == 0)
    assert np.allclose(w, [1.0, 1.0, 0.0, 0.0])
    assert localization_weight(sl, 0, lambda s: s[0] == 0) == pytest.approx(1.0)
    with pytest.raises(IndexError):
        localization_weight(sl, 4, lambda s: True)


def test_sharpen_degeneracies_splits_mixed_corner_pair():
    region = geometry.LatticeRegion([(0, 0), (9, 0)], 1)
    c, s = np.cos(0.7), np.sin(0.7)
    mixed = np.array([[c, -s], [s, c]], dtype=complex)
    sl = SpectralSlice(np.zeros(2), mixed, region=region)
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
                       region=region)
    out = sharpen_degeneracies(sl, lambda site: site[0] == 0)
    assert out is sl


def test_sharpen_degeneracies_rayleigh_values():
    region = geometry.LatticeRegion([(0, 0), (9, 0)], 1)
    h = np.diag([2e-5, -2e-5]).astype(complex)
    vals, vecs = np.linalg.eigh(h)
    mix = np.array([[1, 1], [-1, 1]], dtype=complex) / np.sqrt(2)
    sl = SpectralSlice(vals, vecs @ mix, region=region)
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
        slices.append(SpectralSlice(vals, vecs, t=float(t)))
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


def test_tracking_refuses_a_grid_without_finite_t():
    """A slice without a parameter value would put every crossing at NaN."""
    slices = _rotated_pair_slices(3)
    bare = [SpectralSlice(sl.eigenvalues, sl.eigenvectors) for sl in slices]
    with pytest.raises(TrackingError, match="finite"):
        track_branches(bare, window=0.5)
    slices[2].t = np.inf
    with pytest.raises(TrackingError, match="finite"):
        track_branches(slices, window=0.5)


def test_tracking_ambiguity_raises_without_refinement():
    e0 = np.array([[1.0], [0.0]], dtype=complex)
    e1 = np.array([[0.0], [1.0]], dtype=complex)
    slices = [
        SpectralSlice(np.array([0.0]), e0, t=0.5),
        SpectralSlice(np.array([0.0]), e1, t=2.5),
        SpectralSlice(np.array([0.0]), e0, t=4.5),
    ]
    with pytest.raises(TrackingError, match="ambiguous"):
        track_branches(slices, window=0.5)


def test_tracking_refinement_resolves_fast_rotation():
    def make(t):
        th = 0.6 * t
        vec = np.array([[np.cos(th)], [np.sin(th)]], dtype=complex)
        return SpectralSlice(np.array([0.1]), vec, t=float(t))

    grid = [0.5, 2.5, 4.5]
    slices = [make(t) for t in grid]
    with pytest.raises(TrackingError):
        track_branches(slices, window=0.5)
    track = track_branches(slices, window=0.5, refine_fn=make)
    assert len(crossings(track)) == 0
    assert sum(len(pairs) for pairs in track.links) == 3


def test_tracking_refines_an_eigenvalue_jump_above_the_rate_bound():
    """Two fixed levels 0.1 and 0.3 whose eigenvectors turn by t / 2: each
    grid interval turns them by 57-65 degrees, so the overlap assignment
    swaps them (overlap 0.84-0.91, above ``OVERLAP_MIN``) and every link
    jumps 0.2, above ``jump_bound * dt`` (0.10-0.11).  Only the Lipschitz check
    catches that: one bisection per interval links each level to itself."""
    calls = []

    def make(t):
        calls.append(t)
        th = 0.5 * t
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]], dtype=complex)
        return SpectralSlice(np.array([0.1, 0.3]), rot, t=float(t))

    slices = [make(t) for t in (0.5, 2.5, 4.5)]
    calls.clear()
    swapped = track_branches(slices, window=0.5)
    assert all(u != v for pairs in swapped.links for u, v, _ in pairs)
    with pytest.raises(TrackingError, match="ambiguous"):
        track_branches(slices, window=0.5, jump_bound=0.05)
    track = track_branches(slices, window=0.5, jump_bound=0.05, refine_fn=make)
    assert len(calls) == 3
    assert [sorted((u, v) for u, v, _ in pairs) for pairs in track.links] == \
        [[(0.1, 0.1), (0.3, 0.3)]] * 3


def test_window_solver_refuses_after_the_solve_budget(monkeypatch):
    """An occupied window whose block has not converged within
    ``_BLOCK_MAX_SOLVES`` solves is refused, not returned half converged."""
    op = _random_hermitian_op(60, 3)
    dense = np.linalg.eigvalsh(op.dense())
    assert np.any(np.abs(dense) <= 1.05 * 0.45)
    monkeypatch.setattr(spectra, "_BLOCK_MAX_SOLVES", 2)
    with pytest.raises(EigensolverError, match="did not converge .* after 2 solves"):
        diagonalize_window(op, 0.45)


def test_inertia_count_refuses_an_off_diagonal_pivot(monkeypatch):
    """With a row permutation other than the column one, the factorization is
    no congruence, and its pivot signs count nothing: the count is refused."""

    class Pivoted:
        perm_r, perm_c = np.array([1, 0]), np.array([0, 1])

    monkeypatch.setattr(spectra, "_factor", lambda pattern, values, shift: (Pivoted(), shift))
    with pytest.raises(EigensolverError, match="pivoted off the diagonal"):
        spectra._count_below(None, None, 0.3)


def _orthonormal(rng, d, k):
    raw = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    return np.linalg.qr(raw)[0]


def _assignment_case(rng, m, n, near_permutation):
    """Eigenvectors of two slices with ``m`` and ``n`` windowed states.

    Generic: two independent orthonormal sets.  Near-permutation, as in
    tracking: the second set is the first (extended to ``max(m, n)``
    states) turned by a small unitary, rephased, reordered and cut to ``n``.
    """
    d = 12
    if not near_permutation:
        return _orthonormal(rng, d, m), _orthonormal(rng, d, n)
    base = _orthonormal(rng, d, max(m, n))
    eps = rng.uniform(0.002, 0.04)
    kick = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    turn = np.linalg.qr(np.eye(d) + eps * kick)[0]
    phases = np.exp(2j * np.pi * rng.random(max(m, n)))
    moved = (turn @ base * phases)[:, rng.permutation(max(m, n))]
    return base[:, :m], moved[:, :n]


def test_match_reaches_the_exhaustive_optimum():
    """``_match`` on 504 overlap matrices of orthonormal sets, 1 to 6 states
    a side, square and rectangular, generic and near-permutation: its total
    overlap is the exhaustive optimum, and its pairs are the optimal ones
    wherever that optimum beats every other map by more than 1e-12.  An
    exact tie may be broken either way (see the all-equal case below)."""
    rng = np.random.default_rng(2024)
    unique = 0
    for near_permutation in (False, True):
        for m in range(1, 7):
            for n in range(1, 7):
                for _ in range(7):
                    va, vb = _assignment_case(rng, m, n, near_permutation)
                    sl_a = SpectralSlice(np.arange(m, dtype=float), va)
                    sl_b = SpectralSlice(np.arange(n, dtype=float), vb)
                    got = spectra._match(sl_a, sl_b, np.arange(m), np.arange(n))
                    best, runner_up, pairs = oracle_assignment(np.abs(va.conj().T @ vb))
                    assert len(got) == min(m, n)
                    assert sum(ov for _, _, ov in got) >= best - 1e-12
                    if best - runner_up > 1e-12:
                        unique += 1
                        assert [(ia, ib) for ia, ib, _ in got] == pairs
    assert unique > 450

    # All four overlaps equal 1/sqrt(2): both maps are optimal.  LAPJVsp
    # pairs 0-1 and 1-0 here, scipy.optimize.linear_sum_assignment 0-0 and 1-1.
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    got = spectra._match(SpectralSlice([0.0, 1.0], np.eye(2, dtype=complex)),
                         SpectralSlice([0.0, 1.0], hadamard), np.arange(2), np.arange(2))
    assert sorted(ia for ia, _, _ in got) == sorted(ib for _, ib, _ in got) == [0, 1]
    assert sum(ov for _, _, ov in got) == pytest.approx(np.sqrt(2), abs=1e-12)


def test_match_links_equal_the_maximizing_solver():
    """``_match`` hands LAPJVsp the CSR of -(1 + overlap) built from its shape.
    scipy's ``maximize=True`` negates 1 + overlap exactly, so on random
    rectangular overlaps both give the same rows and columns, bit for bit."""
    rng = np.random.default_rng(16)
    for m in range(1, 7):
        for n in range(1, 7):
            for near_permutation in (False, True):
                va, vb = _assignment_case(rng, m, n, near_permutation)
                got = spectra._match(SpectralSlice(np.arange(m, dtype=float), va),
                                     SpectralSlice(np.arange(n, dtype=float), vb),
                                     np.arange(m), np.arange(n))
                # The same products as _match forms from its index arrays.
                overlap = np.abs(va[:, np.arange(m)].conj().T @ vb[:, np.arange(n)])
                rows, cols = min_weight_full_bipartite_matching(
                    sp.csr_array(1 + overlap), maximize=True)
                assert [(ia, ib) for ia, ib, _ in got] == list(zip(rows, cols))
                assert [ov for _, _, ov in got] == [overlap[r, c] for r, c in zip(rows, cols)]
    # An exact tie (every overlap 1/sqrt(2)) is broken the same way too.
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    got = spectra._match(SpectralSlice([0.0, 1.0], np.eye(2, dtype=complex)),
                         SpectralSlice([0.0, 1.0], hadamard), np.arange(2), np.arange(2))
    rows, cols = min_weight_full_bipartite_matching(
        sp.csr_array(1 + np.abs(hadamard)), maximize=True)
    assert [(ia, ib) for ia, ib, _ in got] == list(zip(rows, cols))
