"""Spectra of assembled operators: diagonalization, localization weights,
and eigenvalue-branch tracking across a closed parameter grid.

Branch tracking is the raw material for spectral flow: eigenvalues inside
a symmetric window around zero are linked across neighboring parameter
values by eigenvector overlap, and every linked pair whose sign changes
is one signed zero crossing.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from scipy.optimize import linear_sum_assignment

from .errors import EigensolverError, TrackingError

RESIDUAL_REL_TOL = 1e-8
OVERLAP_MIN = 0.5
DEGENERACY_CLUSTER_TOL = 1e-4
_MAX_REFINE = 3
_BLOCK_SEED = 11
_BLOCK_MAX_SWEEPS = 200


@dataclass
class SpectralSlice:
    """Eigenvalues (ascending) of one operator at one parameter point."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    kind: str
    t: float | None = None
    k_edge: float | None = None
    region: object | None = None

    def __post_init__(self):
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        if np.any(np.diff(self.eigenvalues) < 0):
            raise EigensolverError("eigenvalues must be ascending")


def _check_residuals(matrix, vals, vecs, sample=None, norm_a=None):
    """Residual contract ||A v - lambda v|| <= tol * ||A|| on (a sample of) pairs."""
    if vals.size == 0:
        return
    if norm_a is None:
        norm_a = np.max(np.abs(vals))
    norm_a = max(norm_a, 1e-300)
    idx = np.arange(vals.size)
    if sample is not None and vals.size > sample:
        idx = np.linspace(0, vals.size - 1, sample).astype(int)
    resid = matrix @ vecs[:, idx] - vecs[:, idx] * vals[idx]
    worst = np.max(np.linalg.norm(resid, axis=0))
    if worst > RESIDUAL_REL_TOL * norm_a:
        raise EigensolverError(
            f"eigenpair residual {worst:.3e} exceeds {RESIDUAL_REL_TOL:.0e} * ||A||"
        )


def diagonalize(op):
    """Full dense spectrum of an assembled operator.

    Eigensolver failures surface as EigensolverError; the returned pairs
    satisfy the residual contract of SpectralSlice.
    """
    dense = op.dense()
    try:
        vals, vecs = np.linalg.eigh(dense)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"dense eigensolver failed: {exc}") from exc
    _check_residuals(dense, vals, vecs, sample=None if len(vals) <= 256 else 8)
    return SpectralSlice(vals, vecs, op.kind, t=op.t, k_edge=op.k_edge, region=op.region)


def _factor(csc, *shifts):
    """Symmetric-mode SuperLU of the Hermitian ``csc - shift`` at the first of
    ``shifts`` that factors: MMD on A + A^T, diagonal pivots unless one is 0."""
    eye = sparse.identity(csc.shape[0], dtype=csc.dtype, format="csc")
    for shift in shifts:
        try:
            return spla.splu(csc - shift * eye, permc_spec="MMD_AT_PLUS_A",
                             diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        except RuntimeError as exc:
            failure = exc
    raise EigensolverError(f"sparse factorization at {shift:.6g} failed: {failure}")


def _count_below(csc, shift):
    """Exact number of eigenvalues of the Hermitian ``csc`` below ``shift``.

    Diagonal pivots make ``_factor`` a congruence L D L^H (D the diagonal of
    U), so by Sylvester's law of inertia the negative entries of D count the
    eigenvalues below the shift; an off-diagonal pivot is refused, not counted.
    """
    lu = _factor(csc, shift)
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise EigensolverError(
            f"inertia factorization at {shift:.6g} pivoted off the diagonal; no count")
    return int(np.count_nonzero(lu.U.diagonal().real < 0))


def diagonalize_window(op, window, k=None):
    """Eigenpairs of every eigenvalue in [-1.05 * window, 1.05 * window].

    Certificate: two symmetric-mode factorizations of A -+ 1.05 * window
    give, by Sylvester's law of inertia, the exact number ``count`` of
    eigenvalues in that interval.  An empty interval returns at once.
    Otherwise a seeded random block of ``count + 8`` vectors is driven by
    A^{-1}, solved with the same symmetric L D L^H factorization taken at 0
    (or 1.3e-6, 4.1e-6 if A is singular), with a Rayleigh-Ritz step on A
    after every sweep, until exactly ``count`` Ritz pairs inside the interval
    meet the residual contract.  The random block has full projection onto
    every eigenspace, so exact degeneracies come out whole and orthonormal.

    Refusals: a window that is not a positive finite number raises
    ValueError; a factorization that fails or pivots off the diagonal, or
    a block that has not converged to ``count`` pairs after
    ``_BLOCK_MAX_SWEEPS`` sweeps, raises EigensolverError.

    ``k`` is ignored; the block size follows from the count.
    """
    if not 0 < window < np.inf:
        raise ValueError(f"window must be positive and finite, got {window}")
    matrix = op.matrix.astype(complex, copy=False)
    n = matrix.shape[0]
    csc = matrix.tocsc()
    edge = 1.05 * window
    count = _count_below(csc, edge) - _count_below(csc, -edge)
    norm_a = float(np.abs(matrix).sum(axis=1).max())
    if count == 0:
        return SpectralSlice(np.empty(0), np.empty((n, 0), dtype=complex), op.kind,
                             t=op.t, k_edge=op.k_edge, region=op.region)
    lu = _factor(csc, 0.0, 1.3e-6, 4.1e-6)
    size = min(count + 8, n)
    rng = np.random.default_rng(_BLOCK_SEED)
    block = rng.standard_normal((n, size)) + 1j * rng.standard_normal((n, size))
    tol = RESIDUAL_REL_TOL * norm_a
    for _ in range(_BLOCK_MAX_SWEEPS):
        block, _ = np.linalg.qr(lu.solve(block))
        ab = matrix @ block
        small = block.conj().T @ ab
        theta, rot = np.linalg.eigh(0.5 * (small + small.conj().T))
        block = block @ rot
        resid = np.linalg.norm(ab @ rot - block * theta, axis=0)
        keep = (np.abs(theta) <= edge) & (resid <= tol)
        if np.count_nonzero(keep) == count:
            vals, vecs = theta[keep], block[:, keep]
            _check_residuals(matrix, vals, vecs, norm_a=norm_a)
            return SpectralSlice(vals, vecs, op.kind, t=op.t, k_edge=op.k_edge,
                                 region=op.region)
    raise EigensolverError(
        f"window eigensolver did not converge to the {count} eigenpairs in "
        f"|lambda| <= {edge:.3g} after {_BLOCK_MAX_SWEEPS} sweeps")


def mask_vector(region, mask):
    """Per-degree-of-freedom weights from a site predicate or profile.

    ``mask`` maps a site to a bool (0/1 indicator) or to a float; the
    value is repeated across the site's orbitals.
    """
    flags = np.array([float(mask(site)) for site in region.sites])
    return np.repeat(flags, region.norb)


def localization_weight(sl, eigen_index, mask):
    """Probability weight of one eigenvector on the masked sites.

    ``mask`` is a predicate on (m, n) sites; the weight is the summed
    |component|^2 over masked sites and all their orbitals, normalized by
    the full norm.
    """
    if sl.eigenvectors is None:
        raise EigensolverError("localization weight needs eigenvectors")
    if not 0 <= eigen_index < sl.eigenvalues.size:
        raise IndexError(f"eigen index {eigen_index} out of range")
    v = sl.eigenvectors[:, eigen_index]
    mvec = mask_vector(sl.region, mask)
    total = float(np.vdot(v, v).real)
    return float(np.sum(mvec * np.abs(v) ** 2) / total)


def all_weights(sl, mask):
    """Localization weights of every eigenvector in the slice at once."""
    mvec = mask_vector(sl.region, mask)
    dens = np.abs(sl.eigenvectors) ** 2
    return (mvec @ dens) / np.sum(dens, axis=0)


def sharpen_degeneracies(sl, mask, matrix=None):
    """Rotate near-degenerate eigenvector clusters to a localization basis.

    Exactly or nearly degenerate eigenstates living at different geometric
    features (the four corners of a truncated wedge, the two walls of a
    strip) come out of a black-box eigensolver as arbitrary mixtures.
    Within each cluster of eigenvalues closer than ``DEGENERACY_CLUSTER_TOL``
    this rediagonalizes the masked-weight form, producing states that are
    as localized or as delocalized with respect to the mask as the physics
    allows, without changing the spanned space.  When ``matrix`` is given
    the rotated states get Rayleigh-quotient eigenvalues.
    """
    if sl.eigenvectors is None or sl.eigenvalues.size < 2:
        return sl
    vals = sl.eigenvalues.copy()
    vecs = sl.eigenvectors.copy()
    mvec = mask_vector(sl.region, mask)
    splits = np.nonzero(np.diff(vals) > DEGENERACY_CLUSTER_TOL)[0] + 1
    changed = False
    for cluster in np.split(np.arange(vals.size), splits):
        if cluster.size < 2:
            continue
        block, _ = np.linalg.qr(vecs[:, cluster])
        form = block.conj().T @ (mvec[:, None] * block)
        _, rot = np.linalg.eigh(0.5 * (form + form.conj().T))
        rotated = block @ rot
        vecs[:, cluster] = rotated
        if matrix is not None:
            ray = np.real(np.sum(rotated.conj() * (matrix @ rotated), axis=0))
            vals[cluster] = ray
        changed = True
    if not changed:
        return sl
    order = np.argsort(vals, kind="stable")
    return SpectralSlice(
        vals[order], vecs[:, order], sl.kind, t=sl.t, k_edge=sl.k_edge, region=sl.region
    )


# ---------------------------------------------------------------------------
# branch tracking

@dataclass
class BranchTrack:
    """Windowed states linked across every interval of a closed parameter grid.

    ``links[i]`` lists the pairs linked from ``grid[i]`` to the next point
    (``grid[0] + 2 pi`` after the last) as ``(value_a, value_b, weight)``:
    two eigenvalues and the mean endpoint weight (None unless signs differ).
    """

    grid: np.ndarray
    window: float
    links: list


@dataclass
class Crossing:
    """One signed zero crossing: direction +1 going up, -1 going down."""

    t: float
    direction: int
    weight: float | None


def _window_indices(sl, window):
    return np.nonzero(np.abs(sl.eigenvalues) <= window)[0]


def _match(sl_a, sl_b, idx_a, idx_b):
    """Assign windowed states of two slices by overlap; returns [(ia, ib, overlap)]."""
    if sl_a.eigenvectors is None or sl_b.eigenvectors is None:
        raise TrackingError("branch tracking needs eigenvectors on every slice")
    if idx_a.size == 0 or idx_b.size == 0:
        return []
    ova = sl_a.eigenvectors[:, idx_a]
    ovb = sl_b.eigenvectors[:, idx_b]
    overlap = np.abs(ova.conj().T @ ovb)
    rows, cols = linear_sum_assignment(-overlap)
    return [
        (int(idx_a[r]), int(idx_b[c]), float(overlap[r, c]))
        for r, c in zip(rows, cols)
    ]


def _link_interval(sl_a, sl_b, t_a, t_b, window, jump_bound, refine_fn, depth):
    """Link windowed states of two slices, refining the interval on ambiguity."""
    pairs = _match(sl_a, sl_b, _window_indices(sl_a, window), _window_indices(sl_b, window))
    bad = False
    for ia, ib, overlap in pairs:
        if overlap < OVERLAP_MIN:
            bad = True
        jump = abs(sl_b.eigenvalues[ib] - sl_a.eigenvalues[ia])
        if jump_bound is not None and jump > jump_bound * abs(t_b - t_a) + 1e-9:
            bad = True
    if not bad:
        return [(ia, ib) for ia, ib, _ in pairs]
    if depth <= 0 or refine_fn is None:
        raise TrackingError(
            f"ambiguous branch linking between t={t_a:.6f} and t={t_b:.6f}"
        )
    t_mid = 0.5 * (t_a + t_b)
    sl_mid = refine_fn(t_mid % (2 * np.pi))
    left = dict(_link_interval(sl_a, sl_mid, t_a, t_mid, window, jump_bound, refine_fn, depth - 1))
    right = dict(_link_interval(sl_mid, sl_b, t_mid, t_b, window, jump_bound, refine_fn, depth - 1))
    return [(ia, right[im]) for ia, im in left.items() if im in right]


def track_branches(slices, window, weight_fn=None, jump_bound=None, refine_fn=None):
    """Link the windowed eigenvalues of neighboring points of a closed grid.

    Parameters
    ----------
    slices : list of SpectralSlice
        One per grid point, t strictly increasing in [0, 2pi); the grid is
        treated as closed (the last point links back to the first).  States
        are linked by eigenvector overlap, so every slice, refined ones
        included, must carry eigenvectors (TrackingError otherwise).
    window : float
        Half-width of the symmetric tracking window around zero.
    weight_fn : callable, optional
        ``weight_fn(slice, eigen_index) -> float`` (localization weight),
        called at the two endpoints of each linked pair that changes sign.
    jump_bound : float, optional
        Lipschitz rate C; a linked pair with |dlambda| > C dt triggers
        local grid refinement.
    refine_fn : callable, optional
        ``refine_fn(t) -> SpectralSlice`` used to resolve ambiguous
        linkings; after ``_MAX_REFINE`` bisections a TrackingError is
        raised.

    Returns a :class:`BranchTrack`.  Overlap assignment is one-to-one, so
    the links chain into disjoint branches; each sign change is one link.
    """
    n = len(slices)
    if n < 3:
        raise TrackingError("need at least 3 grid points on the circle")
    grid = np.array([sl.t for sl in slices], dtype=float)
    if np.any(np.diff(grid) <= 0):
        raise TrackingError("slice grid must be strictly increasing")
    ends = np.append(grid[1:], grid[0] + 2 * np.pi)
    links = []
    for i in range(n):
        sl_a, sl_b = slices[i], slices[(i + 1) % n]
        pairs = []
        for ia, ib in _link_interval(sl_a, sl_b, grid[i], ends[i], window, jump_bound,
                                     refine_fn, _MAX_REFINE):
            u, v = float(sl_a.eigenvalues[ia]), float(sl_b.eigenvalues[ib])
            crosses = weight_fn is not None and (u < 0) != (v < 0)
            w = float(np.mean([weight_fn(sl_a, ia), weight_fn(sl_b, ib)])) if crosses else None
            pairs.append((u, v, w))
        links.append(pairs)
    return BranchTrack(grid, window, links)


def crossings(track):
    """Signed zero crossings of the linked pairs, sorted by parameter value.

    A pair (u, v) whose sign changes crosses at the linear interpolation
    ``t_a + u / (u - v) * (t_b - t_a)`` of its interval, going up if v >= 0.
    """
    found = []
    ends = np.append(track.grid[1:], track.grid[0] + 2 * np.pi)
    for t_a, t_b, pairs in zip(track.grid, ends, track.links):
        for u, v, w in pairs:
            if (u < 0) != (v < 0):
                t_c = (t_a + u / (u - v) * (t_b - t_a)) % (2 * np.pi)
                found.append(Crossing(float(t_c), +1 if v >= 0 else -1, w))
    return sorted(found, key=lambda c: c.t)
