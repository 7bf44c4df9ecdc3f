"""Spectra of assembled operators: diagonalization, localization weights,
and eigenvalue-branch tracking across a closed parameter grid.

Branch tracking is the raw material for spectral flow: eigenvalues inside
a symmetric window around zero are linked across neighboring parameter
values by eigenvector overlap, and every linked pair whose sign changes
is one signed zero crossing.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg.lapack as lapack
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

from .errors import EigensolverError, TrackingError

RESIDUAL_REL_TOL = 1e-8
OVERLAP_MIN = 0.5
DEGENERACY_CLUSTER_TOL = 1e-4
_MAX_REFINE = 3
_BLOCK_SEED = 11
_BLOCK_MAX_SOLVES = 200
_PANEL_SIZE = 1


@dataclass
class SpectralSlice:
    """Eigenvalues (ascending) of one operator at one parameter point, with
    their eigenvectors as the columns of a 2-D array."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    t: float | None = None
    region: object | None = None

    def __post_init__(self):
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        if np.any(np.diff(self.eigenvalues) < 0):
            raise EigensolverError("eigenvalues must be ascending")
        shape = np.shape(self.eigenvectors)
        if len(shape) != 2 or shape[1] != self.eigenvalues.size:
            raise EigensolverError(
                "eigenvectors must be a 2-D array with one column per eigenvalue")


def _check_residuals(matrix, vals, vecs, norm_a=None):
    """Residual contract ||A v - lambda v|| <= tol * ||A|| on every pair."""
    if vals.size == 0:
        return
    if norm_a is None:
        norm_a = np.max(np.abs(vals))
    norm_a = max(norm_a, 1e-300)
    resid = matrix @ vecs - vecs * vals
    worst = np.max(np.linalg.norm(resid, axis=0))
    if worst > RESIDUAL_REL_TOL * norm_a:
        raise EigensolverError(
            f"eigenpair residual {worst:.3e} exceeds {RESIDUAL_REL_TOL:.0e} * ||A||"
        )


def diagonalize(op, reach=math.inf):
    """Dense eigenpairs of every whole cluster (as delimited by
    :func:`cluster_splits`) whose hull meets (-reach, reach).

    ``reach = inf`` (the default) is the full spectrum by ``eigh``.  A finite
    ``reach > 0`` solves only the interval (-R, R], R = 1.01 reach + 2 tol
    (tol the cluster tolerance), by MRRR (LAPACK ``zheevr``; Dhillon and
    Parlett, Linear Algebra Appl. 387, 2004), and widens R to the outermost
    value + 2 tol while that value lies within tol of R: a cluster cut by R
    has a member there.  Once R reaches the max absolute row sum, which
    bounds every |eigenvalue|, the full spectrum is taken instead.  Clusters
    come out whole either way, and an empty slice is a valid answer.

    Eigensolver failures surface as EigensolverError; every returned pair
    satisfies the residual contract of ``_check_residuals``, with ||A|| taken
    as the largest returned |eigenvalue| (and, for a finite reach, at least
    the largest column norm of A): never more than ||A||_2.
    """
    if not reach > 0:
        raise ValueError(f"reach must be positive, got {reach}")
    dense = op.dense()
    tol, rho = DEGENERACY_CLUSTER_TOL, np.abs(dense).sum(axis=1).max()
    bound = 1.01 * reach + 2 * tol
    while bound < rho:
        vals, vecs, m, _, info = lapack.zheevr(dense, compute_v=1, range="V",
                                               vl=-bound, vu=bound)
        if info != 0:
            raise EigensolverError(f"subset eigensolver failed (zheevr info {info})")
        vals, vecs = vals[:m], vecs[:, :m]
        if np.max(np.abs(vals), initial=0.0) < bound - tol:
            break
        bound = np.max(np.abs(vals)) + 2 * tol
    else:
        try:
            vals, vecs = np.linalg.eigh(dense)
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(f"dense eigensolver failed: {exc}") from exc
        if reach == math.inf:
            _check_residuals(dense, vals, vecs)
            return SpectralSlice(vals, vecs, op.t, op.region)
    labels = np.isin(np.arange(vals.size), cluster_splits(vals)).cumsum()  # cluster numbers
    keep = ((vals[np.searchsorted(labels, labels, side="right") - 1] > -reach)  # hull top
            & (vals[np.searchsorted(labels, labels)] < reach))  # hull bottom
    vals, vecs = vals[keep], vecs[:, keep]
    norm_a = max(np.max(np.abs(vals), initial=0.0), np.linalg.norm(dense, axis=0).max())
    _check_residuals(dense, vals, vecs, norm_a=norm_a)
    return SpectralSlice(vals, vecs, op.t, op.region)


class FactorPattern:
    """A square CSC pattern (``indptr``, ``indices`` sorted, diagonal stored)
    and the one fill-reducing order of every matrix factored on it: the first
    factorization orders by MMD on A + A^T and keeps its column permutation
    ``rank``; every later one factors ``A[order][:, order]``, ``order`` the
    inverse of ``rank``, in NATURAL order.  ``shell`` is the one CSC matrix
    on the current layout; each factorization writes ``values[take]`` into its
    ``data`` and subtracts the shift at ``diag``.
    """

    def __init__(self, indptr, indices):
        self.indptr, self.indices = indptr.astype(np.int32), indices.astype(np.int32)
        n = self.indptr.size - 1
        cols = np.repeat(np.arange(n, dtype=np.int32), np.diff(self.indptr))
        self.take = np.arange(self.indices.size)
        self._shell(self.indptr, self.indices, np.flatnonzero(self.indices == cols))
        self.order = self.rank = None

    @classmethod
    def of(cls, matrix):
        """The pattern of ``matrix`` with its diagonal stored, and its values on it."""
        csc = sparse.csc_matrix(matrix, dtype=complex, copy=True)
        csc.setdiag(csc.diagonal())
        csc.sort_indices()
        return cls(csc.indptr, csc.indices), csc.data

    def _shell(self, indptr, indices, diag):
        self.shell = sparse.csc_matrix((np.zeros(indices.size, dtype=complex), indices, indptr),
                                       (indptr.size - 1,) * 2)
        self.diag = diag

    def _lay_out(self, rank):
        # A copy: SuperLU's perm_c is a view that would keep its whole factor alive.
        n, rank = rank.size, rank.astype(np.int64)
        keys = np.repeat(rank, np.diff(self.indptr)) * n + rank[self.indices]
        self.take = np.argsort(keys)
        keys = keys[self.take]
        self._shell(np.searchsorted(keys, np.arange(n + 1) * n).astype(np.int32),
                    (keys % n).astype(np.int32), np.flatnonzero(keys // n == keys % n))
        self.order, self.rank = np.argsort(rank), rank


def _factor(pattern, values, *shifts):
    """Symmetric-mode SuperLU of ``A - shift`` at the first of ``shifts`` that
    factors, A the Hermitian matrix with ``values`` on ``pattern``: diagonal
    pivots unless one is 0.  Returns the factorization and its shift.  The
    first factorization on a pattern fixes its order; every later one is of
    the pre-ordered matrix, written into the pattern's shell and shifted in
    place.  A factorization keeps no reference to the matrix it was taken of,
    so a later shift leaves an earlier one intact."""
    fresh, shell = pattern.order is None, pattern.shell
    failures = []
    for shift in shifts:
        shell.data[:] = np.asarray(values)[pattern.take]
        shell.data[pattern.diag] -= shift
        try:
            lu = spla.splu(shell, permc_spec="MMD_AT_PLUS_A" if fresh else "NATURAL",
                           diag_pivot_thresh=0.0, panel_size=_PANEL_SIZE,
                           options={"SymmetricMode": True})
        except RuntimeError as exc:
            failures.append(f"{shift:.6g} ({exc})")
            continue
        if fresh:
            pattern._lay_out(lu.perm_c)
        return lu, shift
    raise EigensolverError(f"sparse factorization failed at {', '.join(failures)}")


def _count_below(pattern, values, shift):
    """Exact number of eigenvalues below ``shift`` of ``values`` on ``pattern``.

    Diagonal pivots make ``_factor`` a congruence L D L^H (D the diagonal of
    U), so by Sylvester's law of inertia the negative entries of D count the
    eigenvalues below the shift; an off-diagonal pivot is refused, not counted.
    """
    lu, _ = _factor(pattern, values, shift)
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise EigensolverError(
            f"inertia factorization at {shift:.6g} pivoted off the diagonal; no count")
    return int(np.count_nonzero(lu.U.diagonal().real < 0))


def diagonalize_window(op, window, k=None):
    """Eigenpairs of every eigenvalue in [-1.05 * window, 1.05 * window].

    Certificate: two symmetric-mode factorizations of A -+ edge, edge =
    1.05 * window, give by Sylvester's law of inertia the exact number
    ``count`` of eigenvalues in [-edge, edge]; an empty interval returns
    after these 2.  Otherwise counts at -+ 2 * edge give the ``annulus`` of
    eigenvalues with edge < |lambda| < 2 * edge, and a seeded random block
    of ``count + min(annulus, 8)`` vectors (``count + 8`` if a sizing count
    fails) is driven by M = (A - s)^{-1}, solved with the same symmetric
    L D L^H factorization taken at s = 0 (or 1.3e-6, 4.1e-6 if A is
    singular): 5 factorizations.  Every sweep applies the Chebyshev filter
    T_2(M / c) = 2 (M / c)^2 - 1, c = 1 / (2 * edge - |s|), with two solves
    (Rutishauser, Numer. Math. 16, 1970): |T_2| <= 1 for |lambda| >= 2 * edge,
    and T_2 >= 7 on the window at s = 0, where two plain solves give 4.  An
    annulus eigenvalue that a crowded block leaves out sits at 1 < a < b in
    units of c, b the smallest windowed |M / c|, and T_2(a) / T_2(b) <=
    (a / b)^2 contracts it at least as much as two plain solves; only a block
    sized blind, after a failed sizing count, that leaves out nothing nearer
    than |M / c| = 0.52 converges slower.  A Rayleigh-Ritz step on A follows
    every sweep, until exactly ``count`` Ritz pairs inside the interval meet
    the residual contract.  The random block has full projection onto every
    eigenspace, so exact degeneracies come out whole and orthonormal.

    All factorizations run on the ``pattern`` that the operator's family shares
    (or on one of its own), so a family is MMD-ordered once, by its first count.

    Refusals: a window that is not a positive finite number raises
    ValueError; a factorization that fails or pivots off the diagonal, or
    a block that has not converged to ``count`` pairs within
    ``_BLOCK_MAX_SOLVES`` solves, raises EigensolverError.

    ``k`` is ignored; the block size follows from the counts.
    """
    if not 0 < window < np.inf:
        raise ValueError(f"window must be positive and finite, got {window}")
    matrix = op.matrix.astype(complex, copy=False)
    n = matrix.shape[0]
    pattern, values = (FactorPattern.of(matrix) if op.pattern is None
                       else (op.pattern, matrix.data))
    edge = 1.05 * window
    count = _count_below(pattern, values, edge) - _count_below(pattern, values, -edge)
    if count == 0:
        return SpectralSlice(np.empty(0), np.empty((n, 0), dtype=complex), op.t, op.region)
    try:  # a failed sizing count costs solves, never the result
        extra = min(_count_below(pattern, values, 2 * edge)
                    - _count_below(pattern, values, -2 * edge) - count, 8)
    except EigensolverError:
        extra = 8
    size = min(count + extra, n)
    norm_a = float(np.abs(matrix).sum(axis=1).max())
    lu, shift = _factor(pattern, values, 0.0, 1.3e-6, 4.1e-6)
    scale = 2 * (2 * edge - abs(shift)) ** 2  # 2 / c^2: Y = scale M^2 X - X
    rng = np.random.default_rng(_BLOCK_SEED)
    block = rng.standard_normal((n, size)) + 1j * rng.standard_normal((n, size))
    tol = RESIDUAL_REL_TOL * norm_a
    for _ in range(_BLOCK_MAX_SOLVES // 2):
        rhs = block[pattern.order]
        solved = scale * lu.solve(lu.solve(rhs)) - rhs
        block, _ = np.linalg.qr(solved[pattern.rank])
        ab = matrix @ block
        small = block.conj().T @ ab
        theta, rot = np.linalg.eigh(0.5 * (small + small.conj().T))
        block = block @ rot
        resid = np.linalg.norm(ab @ rot - block * theta, axis=0)
        keep = (np.abs(theta) <= edge) & (resid <= tol)
        if np.count_nonzero(keep) == count:
            vals, vecs = theta[keep], block[:, keep]
            _check_residuals(matrix, vals, vecs, norm_a=norm_a)
            return SpectralSlice(vals, vecs, op.t, op.region)
    raise EigensolverError(
        f"window eigensolver did not converge to the {count} eigenpairs in "
        f"|lambda| <= {edge:.3g} after {_BLOCK_MAX_SOLVES} solves")


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


def cluster_splits(vals):
    """Start of every cluster but the first in ascending ``vals``: the indices
    whose gap to the previous value exceeds ``DEGENERACY_CLUSTER_TOL``."""
    return np.nonzero(np.diff(vals) > DEGENERACY_CLUSTER_TOL)[0] + 1


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
    if sl.eigenvalues.size < 2:
        return sl
    vals = sl.eigenvalues.copy()
    vecs = sl.eigenvectors.copy()
    mvec = mask_vector(sl.region, mask)
    changed = False
    for cluster in np.split(np.arange(vals.size), cluster_splits(vals)):
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
    return replace(sl, eigenvalues=vals[order], eigenvectors=vecs[:, order])


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
    if idx_a.size == 0 or idx_b.size == 0:
        return []
    ova = sl_a.eigenvectors[:, idx_a]
    ovb = sl_b.eigenvectors[:, idx_b]
    overlap = np.abs(ova.conj().T @ ovb)
    # LAPJVsp takes nonzero weights only: on -(1 + overlap) every pair is an
    # edge, and the minimum is the maximum-overlap assignment.
    na, nb = overlap.shape
    cost = sparse.csr_array((-(1 + overlap).ravel(), np.tile(np.arange(nb), na),
                             np.arange(0, na * nb + 1, nb)), shape=overlap.shape)
    rows, cols = min_weight_full_bipartite_matching(cost)
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
        One per grid point, t finite and strictly increasing in [0, 2pi)
        (TrackingError otherwise, a None t included); the grid is treated as
        closed (the last point links back to the first).  States are linked
        by eigenvector overlap.
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

    Returns a :class:`BranchTrack`.  Each interval's states are linked by
    the maximum-overlap assignment (Jonker-Volgenant LAPJVsp, from
    ``scipy.sparse.csgraph``), rectangular when the two window counts
    differ: it is one-to-one, so the links chain into disjoint branches,
    and each sign change is one link.
    """
    n = len(slices)
    if n < 3:
        raise TrackingError("need at least 3 grid points on the circle")
    grid = np.array([sl.t for sl in slices], dtype=float)
    if not (np.all(np.isfinite(grid)) and np.all(np.diff(grid) > 0)):
        raise TrackingError("slice grid must be finite and strictly increasing")
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
    return BranchTrack(grid, links)


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
