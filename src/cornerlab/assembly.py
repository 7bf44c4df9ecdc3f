"""Finite Hermitian matrices from a symbol plus a geometry.

Real-space convention: the matrix entry coupling row site x to column
site y is the hopping block ``h_{x-y}``, with the third (parameter) axis
folded by the phase ``exp(-i l t)`` beforehand.  This is the unique choice
consistent with the Bloch convention ``H(k) = sum_r h_r exp(i <r, k>)``:
plane waves ``exp(-i k x)`` then diagonalize the bulk operator with
eigenvalue matrix H(k).  Truncations are Dirichlet (hops leaving the
region are dropped).
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


def _fold_parameter_axis(sym, t):
    """Reduce a dim-3 symbol to dim-2 blocks at parameter t (identity for dim 2).

    The parameter axis is folded with the opposite Fourier orientation to the
    lattice axes.  This fixes the traversal direction of closed families so
    that upward eigenvalue crossings count the same invariant the bulk
    formulas produce; with the other orientation every spectral flow in the
    library would flip sign.
    """
    if sym.dim == 3:
        return symbol.partial_bloch(sym, 2, -t)
    return sym


def _build(hoppings, region, kind, place=None, t=None, k_edge=None):
    """Assemble a CSR matrix from 2-D hoppings over all region sites at once.

    Every region site is displaced by every hopping offset in one array
    operation; ``place(targets)`` maps the ``(n_hops, n_sites, 2)`` targets
    to row positions (-1 drops the hop) and phases (None for all 1).  With
    no place rule, hops are truncated to the region (Dirichlet).  Hops that
    land on the same entry are summed.
    """
    norb = region.norb
    offsets = np.array(list(hoppings), dtype=np.int64).reshape(-1, 1, 2)
    blocks = np.array(list(hoppings.values()), dtype=complex).reshape(-1, norb * norb)
    targets = np.array(region.sites, dtype=np.int64) + offsets
    pos, phase = (region.site_position(targets), None) if place is None else place(targets)
    hop, col = np.nonzero(pos >= 0)
    values = blocks[hop] if phase is None else blocks[hop] * phase[hop, col, None]
    orb_row, orb_col = np.divmod(np.arange(norb * norb), norb)
    rows = pos[hop, col, None] * norb + orb_row
    cols = col[:, None] * norb + orb_col
    mat = sp.coo_matrix(
        (values.ravel(), (rows.ravel(), cols.ravel())), shape=(region.dof, region.dof)
    ).tocsr()
    return AssembledOperator(mat, kind, region=region, t=t, k_edge=k_edge)


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
    folded = _fold_parameter_axis(sym, t)
    region = geometry.wedge_region(pair, L, sym.norb)
    return _build(folded.hoppings, region, KIND_CORNER, t=float(t))


def assemble_edge_strip(sym, slope, which, W, k_edge, t=None):
    """Edge compression: one supercell wide, W layers deep, Bloch in k_edge.

    Hops whose target leaves the supercell window along the edge direction
    re-enter through the Bloch phase ``exp(i k_edge j)`` where j counts
    supercell translations; hops leaving the W-layer window transversally
    are dropped (Dirichlet walls at depth 0 and depth W-1).
    """
    if sym.dim not in (2, 3):
        raise ModelError(f"edge strip expects a dim-2 or dim-3 symbol, got dim {sym.dim}")
    if sym.dim == 3 and t is None:
        raise ModelError("dim-3 symbol needs a parameter value t")
    rng = max(sym.hopping_range()[:2])
    if W <= rng:
        raise GeometryError(f"W={W} must exceed the hopping range {rng}")
    folded = _fold_parameter_axis(sym, t)
    region, _ = geometry.strip_region(slope, which, W, sym.norb)
    kind = KIND_EDGE_ALPHA if which == geometry.ALPHA else KIND_EDGE_BETA

    def place(targets):
        depth = geometry.strip_depth(slope, which, targets)
        rep, j = geometry.reduce_to_supercell(slope, targets)
        pos = region.site_position(rep)
        inside = (depth >= 0) & (depth < W)
        lost = targets[inside & (pos < 0)]
        if lost.size:
            raise GeometryError(f"supercell reduction failed for site {tuple(lost[0].tolist())}")
        return np.where(inside, pos, -1), np.exp(1j * k_edge * j)

    return _build(
        folded.hoppings, region, kind, place,
        t=None if t is None else float(t), k_edge=float(k_edge),
    )


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
