"""Finite Hermitian matrices from a symbol plus a geometry.

Real-space convention: the matrix entry coupling row site x to column
site y is the hopping block ``h_{x-y}``, with the third (parameter) axis
entering through the phase ``exp(-i l t)``.  This is the unique choice
consistent with the Bloch convention ``H(k) = sum_r h_r exp(i <r, k>)``:
plane waves ``exp(-i k x)`` then diagonalize the bulk operator with
eigenvalue matrix H(k).  The parameter axis has the opposite Fourier
orientation to the lattice axes; this fixes the traversal direction of
closed families so that upward eigenvalue crossings count the same
invariant the bulk formulas produce.  Truncations are Dirichlet (hops
leaving the region are dropped).
"""

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from . import geometry, spectra, symbol
from .errors import GeometryError, ModelError


@dataclass
class AssembledOperator:
    """A Hermitian matrix with the geometry metadata it was built from.

    ``matrix`` is stored sparse; use :meth:`dense` for eigensolvers that want
    a full array.  An :class:`OperatorFamily` has checked its operators for
    Hermiticity already and builds them CSC on its ``pattern``.
    """

    matrix: sp.spmatrix
    region: "geometry.LatticeRegion | None" = None
    t: float | None = None
    pattern: "spectra.FactorPattern | None" = None

    def __post_init__(self):
        if self.pattern is not None:
            return
        herm_defect = abs(self.matrix - self.matrix.conj().T)
        if herm_defect.nnz and herm_defect.max() > symbol.HERMITICITY_TOL:
            raise ModelError("assembled matrix is not Hermitian")

    @property
    def shape(self):
        return self.matrix.shape

    def dense(self):
        return self.matrix.toarray()


@dataclass
class OperatorFamily:
    """Operators ``sum_T exp(i (j k_edge - l t)) coeffs[T]`` over ``terms`` T = (j, l).

    j counts edge-supercell translations (0 off a strip), l indexes the
    parameter axis.  All ``coeffs`` share the column-major flat indices
    ``entries`` (the diagonal and every entry nonzero for some term: a stored
    zero costs every factorization), mirrored by ``entries[transpose]``, and
    ``pattern`` with its one fill-reducing order.  Every point is checked for
    Hermiticity, and its value does not depend on which other points are
    evaluated.

    For a strip, ``band_index`` places the entries ``lower`` (on or below the
    diagonal once the sites are stable-sorted by strip depth) into LAPACK lower
    band storage of shape ``(bandwidth + 1, dof)``.  A hop changes the depth
    by at most the hopping range and each depth holds q sites of a slope p/q
    (one for infinite slopes), so the bandwidth does not grow with W.
    """

    region: "geometry.LatticeRegion"
    dim: int
    terms: np.ndarray
    coeffs: np.ndarray
    entries: np.ndarray
    transpose: np.ndarray
    pattern: "spectra.FactorPattern"
    lower: np.ndarray | None = None
    band_index: np.ndarray | None = None
    bandwidth: int = 0

    def _phases(self, k_edge, t):
        """``exp(i (j k_edge - l t))`` per term, on a leading axis per value of an array ``t``."""
        if self.dim == 3 and t is None:
            raise ModelError("dim-3 symbol needs a parameter value t")
        lt = np.multiply.outer(t if self.dim == 3 else 0.0, self.terms[:, 1])
        return np.exp(1j * (self.terms[:, 0] * k_edge - lt))

    def _checked(self, vals):
        if np.abs(vals - vals[..., self.transpose].conj()).max(initial=0) > symbol.HERMITICITY_TOL:
            raise ModelError("assembled matrix is not Hermitian")
        return vals

    def banded(self, k_edge, t=None):
        """Lower band storage ``band[..., r - c, c] = A[r, c]`` of the depth-ordered
        strip; a 1-D array ``t`` gives one band per value, stacked on axis 0."""
        vals = self._checked(self._phases(k_edge, t) @ self.coeffs)
        band = np.zeros(vals.shape[:-1] + (self.bandwidth + 1, self.region.dof), dtype=complex)
        band.reshape(vals.shape[:-1] + (-1,))[..., self.band_index] = vals[..., self.lower]
        return band

    def operator(self, k_edge=None, t=None):
        """CSC on ``pattern``; ``k_edge`` is None off a strip."""
        vals = self._checked((self._phases(k_edge or 0.0, t)[:, None] * self.coeffs).sum(axis=0))
        mat = sp.csc_matrix((vals, self.pattern.indices, self.pattern.indptr),
                            shape=(self.region.dof,) * 2)
        return AssembledOperator(mat, self.region, t if t is None else float(t), self.pattern)


def _family(sym, region, reduce=None):
    """The family of ``sym`` on ``region``: hop h takes column site s to
    ``targets[h, s]``, whose row site position (-1: dropped) and supercell
    index j are ``reduce(targets)``, by default the target itself and 0.

    Zero block entries are dropped.  One argsort (np.unique is far slower on
    as many int64 keys) of the flat keys, their transposes and the diagonal
    places every coefficient, at most one per term and entry, and pairs every
    entry with its transpose.
    """
    norb, n = region.norb, region.dof
    offsets, blocks = sym.hopping_offsets, sym.hopping_blocks.reshape(-1, norb * norb)
    targets = np.array(region.sites, dtype=np.int64) + np.pad(
        offsets, ((0, 0), (0, 3 - sym.dim)))[:, None, :2]
    pos, j = reduce(targets) if reduce else (region.site_position(targets), 0)
    hop, col = np.nonzero(pos >= 0)
    jl = np.column_stack((np.broadcast_to(j, pos.shape)[hop, col],
                          offsets[hop, 2] if sym.dim == 3 else 0 * hop))
    low, span = jl.min(axis=0), np.ptp(jl, axis=0) + 1
    codes, term = np.unique((jl - low) @ [span[1], 1], return_inverse=True)
    pair, orb = np.nonzero((blocks != 0)[hop])
    hop, col, term = hop[pair], col[pair], term[pair]
    keys = (col * norb + orb % norb) * n + pos[hop, col] * norb + orb // norb
    flat = np.concatenate((keys, keys % n * n + keys // n, np.arange(n) * (n + 1)))
    order = np.argsort(flat)
    first = np.append(True, flat[order[1:]] != flat[order[:-1]])
    slot = np.empty_like(order)
    slot[order] = np.cumsum(first) - 1
    entries = flat[order[first]]
    coeffs = np.zeros((codes.size, entries.size), dtype=complex)
    coeffs[term, slot[:keys.size]] = blocks[hop, orb]
    transpose = np.empty_like(slot, shape=entries.size)
    transpose[slot] = slot[np.r_[keys.size:2 * keys.size, :keys.size, 2 * keys.size:slot.size]]
    return OperatorFamily(region, sym.dim, np.column_stack(np.divmod(codes, span[1])) + low,
                          coeffs, entries, transpose, spectra.FactorPattern(
                              np.searchsorted(entries, np.arange(n + 1) * n), entries % n))


def corner_family(sym, pair, L):
    """Corner compressions on the wedge of ``pair`` inside the max-norm ball L,
    built once for every t: within the wedge the entry from column site b to
    row site a is ``sum_l h_{(a-b, l)} exp(-i l t)``, and hops leaving the
    wedge or the ball are dropped (Dirichlet)."""
    if sym.dim != 3:
        raise ModelError(f"corner assembly expects a dim-3 symbol, got dim {sym.dim}")
    rng = max(sym.hopping_range()[:2])
    if rng > L:
        raise GeometryError(f"hopping range {rng} exceeds corner size L={L}")
    return _family(sym, geometry.wedge_region(pair, L, sym.norb))


def assemble_corner(sym, pair, L, t):
    """The compression of :func:`corner_family` at ``t``: a one-point family."""
    return corner_family(sym, pair, L).operator(t=t)


def strip_family(sym, slope, which, W):
    """Edge compressions of a symbol: one supercell wide, W layers deep.

    Hops leaving the supercell along the edge re-enter with the Bloch phase
    ``exp(i k_edge j)``, j counting supercell translations; hops leaving the
    W layers are dropped (Dirichlet walls at depths 0 and W-1).  Validated as
    one strip; geometry, pattern and band layout are built once for all
    ``(k_edge, t)``.  A dim-1 symbol has no edge axis: its slope-inf beta
    strip is the half-line, sites 0..W-1 with j always 0.
    """
    region, depths = geometry.strip_region(slope, which, W, sym.norb)
    rng = max(sym.hopping_range()[:2])
    if W <= rng:
        raise GeometryError(f"W={W} must exceed the hopping range {rng}")

    def reduce(targets):
        depth = geometry.strip_depth(slope, which, targets)
        inside = (depth >= 0) & (depth < W)
        rep, j = geometry.reduce_to_supercell(slope, targets)
        pos = region.site_position(rep)
        if (lost := targets[inside & (pos < 0)]).size:
            raise GeometryError(f"supercell reduction failed for site {tuple(lost[0].tolist())}")
        return np.where(inside, pos, -1), j

    family, norb, n = _family(sym, region, reduce), sym.norb, region.dof
    rank = np.empty(region.n_sites, dtype=np.int64)
    rank[np.argsort(depths, kind="stable")] = np.arange(region.n_sites)
    dof_rank = (rank[:, None] * norb + np.arange(norb)).ravel()
    band_row, band_col = dof_rank[family.entries % n], dof_rank[family.entries // n]
    lower = band_row >= band_col
    return replace(family, lower=lower, band_index=((band_row - band_col) * n + band_col)[lower],
                   bandwidth=int((band_row - band_col).max()))


def assemble_edge_strip(sym, slope, which, W, k_edge, t=None):
    """The strip of :func:`strip_family` at ``(k_edge, t)`` for a dim-2 or dim-3
    symbol; ``t`` is needed in dim 3."""
    if sym.dim not in (2, 3):
        raise ModelError(f"edge strip expects a dim-2 or dim-3 symbol, got dim {sym.dim}")
    return strip_family(sym, slope, which, W).operator(k_edge, t)


def assemble_halfline(sym, W):
    """Half-line compression of a dim-1 symbol on sites 0..W-1 (Dirichlet):
    the slope-inf beta :func:`strip_family` of the symbol."""
    if sym.dim != 1:
        raise ModelError(f"half-line assembly expects a dim-1 symbol, got dim {sym.dim}")
    return strip_family(sym, geometry.Slope.plus_inf(), geometry.BETA, W).operator()
