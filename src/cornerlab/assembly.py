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

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import geometry, symbol
from .errors import GeometryError, ModelError

ASSEMBLY_HERMITICITY_TOL = 1e-12

KIND_BULK = "bulk"
KIND_EDGE_ALPHA = "edge_alpha"
KIND_EDGE_BETA = "edge_beta"
KIND_CORNER = "corner"
KIND_HALFLINE = "halfline"


@dataclass
class AssembledOperator:
    """A Hermitian matrix with the geometry metadata it was built from.

    ``matrix`` is stored sparse (CSR); use :meth:`dense` for eigensolvers
    that want a full array.
    """

    matrix: sp.csr_matrix
    kind: str
    region: "geometry.LatticeRegion | None" = None
    t: float | None = None
    k_edge: float | None = None

    def __post_init__(self):
        herm_defect = abs(self.matrix - self.matrix.conj().T)
        if herm_defect.nnz and herm_defect.max() > ASSEMBLY_HERMITICITY_TOL:
            raise ModelError(f"assembled {self.kind} matrix is not Hermitian")

    @property
    def shape(self):
        return self.matrix.shape

    def dense(self):
        return self.matrix.toarray()


def _build(hoppings, region, kind, t=None):
    """Assemble a CSR matrix from 2-D hoppings over all region sites at once.

    Every region site is displaced by every hopping offset in one array
    operation; hops leaving the region are dropped (Dirichlet) and hops
    that land on the same entry are summed.
    """
    norb = region.norb
    offsets = np.array(list(hoppings), dtype=np.int64).reshape(-1, 1, 2)
    blocks = np.array(list(hoppings.values()), dtype=complex).reshape(-1, norb * norb)
    pos = region.site_position(np.array(region.sites, dtype=np.int64) + offsets)
    hop, col = np.nonzero(pos >= 0)
    orb_row, orb_col = np.divmod(np.arange(norb * norb), norb)
    rows = (pos[hop, col, None] * norb + orb_row).ravel()
    cols = (col[:, None] * norb + orb_col).ravel()
    mat = sp.coo_matrix((blocks[hop].ravel(), (rows, cols)), shape=(region.dof,) * 2).tocsr()
    return AssembledOperator(mat, kind, region=region, t=t)


def assemble_bulk(sym, k):
    """Bloch fiber H(k) wrapped with metadata."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    mat = sp.csr_matrix(symbol.evaluate_bloch(sym, k))
    t = float(k[-1]) if sym.dim == 3 else None
    return AssembledOperator(mat, KIND_BULK, region=None, t=t)


def assemble_corner(sym, pair, L, t):
    """Corner compression on the wedge of ``pair`` inside the max-norm ball L.

    The parameter axis is folded at ``t``; within the wedge the entry from
    column site b to row site a is ``sum_l h_{(a-b, l)} exp(-i l t)``, and
    hops leaving the wedge or the ball are dropped (Dirichlet).
    """
    if sym.dim != 3:
        raise ModelError(f"corner assembly expects a dim-3 symbol, got dim {sym.dim}")
    rng = max(sym.hopping_range()[:2])
    if rng > L:
        raise GeometryError(f"hopping range {rng} exceeds corner size L={L}")
    region = geometry.wedge_region(pair, L, sym.norb)
    return _build(symbol.partial_bloch(sym, 2, -t).hoppings, region, KIND_CORNER, t=float(t))


@dataclass
class StripFamily:
    """Edge strips ``sum_T exp(i (j k_edge - l t)) coeffs[T]`` over ``terms`` T = (j, l).

    j counts supercell translations, l indexes the parameter axis (0 in dim 2).
    All ``coeffs`` share the row-major flat indices ``entries``, mirrored by
    ``entries[transpose]``.  Every point is checked for Hermiticity, and its
    value does not depend on which other points are evaluated.
    """

    region: "geometry.LatticeRegion"
    kind: str
    dim: int
    terms: np.ndarray
    coeffs: np.ndarray
    entries: np.ndarray
    transpose: np.ndarray

    def _values(self, k_edge, t):
        if self.dim == 3 and t is None:
            raise ModelError("dim-3 symbol needs a parameter value t")
        angle = self.terms[:, 0] * k_edge - self.terms[:, 1] * (t if self.dim == 3 else 0.0)
        return (np.exp(1j * angle)[:, None] * self.coeffs).sum(axis=0)

    def dense(self, k_edge, t=None):
        vals = self._values(k_edge, t)
        if np.abs(vals - vals[self.transpose].conj()).max(initial=0) > ASSEMBLY_HERMITICITY_TOL:
            raise ModelError(f"assembled {self.kind} matrix is not Hermitian")
        out = np.zeros((self.region.dof, self.region.dof), dtype=complex)
        out.flat[self.entries] = vals
        return out

    def operator(self, k_edge, t=None):
        """CSR on the whole pattern, zeros kept; checked by AssembledOperator."""
        n = self.region.dof
        indptr = np.searchsorted(self.entries, np.arange(n + 1) * n)
        mat = sp.csr_matrix((self._values(k_edge, t), self.entries % n, indptr), shape=(n, n))
        return AssembledOperator(mat, self.kind, region=self.region,
                                 t=None if t is None else float(t), k_edge=float(k_edge))


def strip_family(sym, slope, which, W):
    """Edge compressions of a dim-2 or dim-3 symbol: one supercell wide, W layers deep.

    Hops leaving the supercell along the edge re-enter with the Bloch phase
    ``exp(i k_edge j)``, j counting supercell translations; hops leaving the
    W layers are dropped (Dirichlet walls at depths 0 and W-1).  Validated as
    one strip; geometry and pattern are built once for all ``(k_edge, t)``.
    """
    if sym.dim not in (2, 3):
        raise ModelError(f"edge strip expects a dim-2 or dim-3 symbol, got dim {sym.dim}")
    rng = max(sym.hopping_range()[:2])
    if W <= rng:
        raise GeometryError(f"W={W} must exceed the hopping range {rng}")
    region, _ = geometry.strip_region(slope, which, W, sym.norb)
    norb, n = sym.norb, region.dof
    offsets = np.array(list(sym.hoppings), dtype=np.int64).reshape(-1, sym.dim)
    blocks = np.array(list(sym.hoppings.values()), dtype=complex).reshape(-1, norb * norb)
    targets = np.array(region.sites, dtype=np.int64) + offsets[:, None, :2]
    depth = geometry.strip_depth(slope, which, targets)
    inside = (depth >= 0) & (depth < W)
    rep, j = geometry.reduce_to_supercell(slope, targets)
    pos = region.site_position(rep)
    if (lost := targets[inside & (pos < 0)]).size:
        raise GeometryError(f"supercell reduction failed for site {tuple(lost[0].tolist())}")
    hop, col = np.nonzero(inside)
    orb_row, orb_col = np.divmod(np.arange(norb * norb), norb)
    keys = ((pos[hop, col, None] * norb + orb_row) * n + col[:, None] * norb + orb_col).ravel()
    entries = np.unique(np.concatenate((keys, keys % n * n + keys // n)))
    l_index = offsets[hop, 2] if sym.dim == 3 else np.zeros_like(hop)
    terms, term = np.unique(np.column_stack((j[hop, col], l_index)), axis=0, return_inverse=True)
    coeffs = np.zeros((len(terms), entries.size), dtype=complex)
    np.add.at(coeffs, (np.repeat(term.ravel(), norb * norb), np.searchsorted(entries, keys)),
              blocks[hop].ravel())
    kind = KIND_EDGE_ALPHA if which == geometry.ALPHA else KIND_EDGE_BETA
    mirror = np.searchsorted(entries, entries % n * n + entries // n)
    return StripFamily(region, kind, sym.dim, terms, coeffs, entries, mirror)


def assemble_edge_strip(sym, slope, which, W, k_edge, t=None):
    """The strip of :func:`strip_family` at ``(k_edge, t)``; ``t`` is needed in dim 3."""
    return strip_family(sym, slope, which, W).operator(k_edge, t)


def assemble_halfline(sym, W):
    """Half-line compression of a dim-1 symbol on sites 0..W-1 (Dirichlet)."""
    if sym.dim != 1:
        raise ModelError(f"half-line assembly expects a dim-1 symbol, got dim {sym.dim}")
    rng = sym.hopping_range()[0]
    if W <= rng:
        raise GeometryError(f"W={W} must exceed the hopping range {rng}")
    region = geometry.LatticeRegion(
        np.column_stack((np.arange(W), np.zeros(W, dtype=int))), sym.norb)
    hoppings = {(dn, 0): blk for (dn,), blk in sym.hoppings.items()}
    return _build(hoppings, region, KIND_HALFLINE)
