"""Matrix-valued Fourier polynomials describing translation-invariant
lattice Hamiltonians.

A symbol is a finite collection of hopping blocks ``h_r`` indexed by
integer offsets ``r`` on Z^d (d = 1, 2, or 3).  The Bloch matrix is

    H(k) = sum_r h_r exp(i <r, k>)

so the elementary shift by +1 along an axis multiplies by exp(i k).
Hermiticity of every H(k) is equivalent to h_{-r} = h_r^dagger, which is
enforced at construction time.  The last axis of a dim-3 symbol is, by
convention, the periodic parameter axis t used in spectral-flow scans.
"""

import json
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ModelError

HERMITICITY_TOL = 1e-12

s0 = np.eye(2, dtype=complex)
sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
sy = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _is_integer(value):
    """True for an integral number that is not a bool (no silent coercion)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _as_block(norb, raw, where):
    blk = np.asarray(raw, dtype=complex)
    if blk.shape != (norb, norb):
        raise ModelError(f"{where}: block shape {blk.shape}, expected ({norb}, {norb})")
    if not np.all(np.isfinite(blk)):
        raise ModelError(f"{where}: block has a non-finite entry")
    return blk


class HamiltonianSymbol:
    """Validated, immutable hopping table for a lattice Hamiltonian.

    It is stored once, in insertion order, as the read-only arrays
    :attr:`hopping_offsets` ``(n, dim)`` and :attr:`hopping_blocks`
    ``(n, norb, norb)``; every evaluator reads these two arrays.

    Parameters
    ----------
    dim : int
        Lattice dimension, one of 1, 2, 3.
    norb : int
        Number of orbitals per site.
    hoppings : mapping
        ``{offset tuple: (norb, norb) array}`` of finite entries (a NaN or
        an infinity raises ModelError).  Every offset must have
        its Hermitian partner present with ``h_{-r} == h_r^dagger`` to
        within ``HERMITICITY_TOL`` entrywise; blocks that are exactly
        zero may be omitted entirely.
    """

    def __init__(self, dim, norb, hoppings):
        if not _is_integer(dim) or dim not in (1, 2, 3):
            raise ModelError(f"dim must be 1, 2, or 3, got {dim!r}")
        if not _is_integer(norb) or norb < 1:
            raise ModelError(f"norb must be a positive integer, got {norb!r}")
        self._dim, self._norb = int(dim), int(norb)
        stored = {}
        for offset, raw in hoppings.items():
            if not np.iterable(offset):
                raise ModelError(f"offset {offset!r} is not a tuple of integers")
            if not all(_is_integer(c) for c in offset):
                raise ModelError(f"offset {offset!r} has a non-integer component")
            off = tuple(int(c) for c in offset)
            if len(off) != dim:
                raise ModelError(f"offset {offset!r} has length {len(off)}, expected {dim}")
            blk = _as_block(norb, raw, f"offset {off}")
            if np.max(np.abs(blk)) != 0.0:
                stored[off] = blk
        for off, blk in stored.items():
            minus = tuple(-c for c in off)
            partner = stored.get(minus)
            if partner is None:
                raise ModelError(f"offset {off} has no Hermitian partner at {minus}")
            if np.max(np.abs(partner - blk.conj().T)) > HERMITICITY_TOL:
                raise ModelError(f"blocks at {off} and {minus} are not Hermitian partners")
        self._offsets = np.array(list(stored), dtype=np.int64).reshape(-1, self._dim)
        self._blocks = np.array(list(stored.values()), dtype=complex).reshape(-1, norb, norb)
        self._offsets.flags.writeable = self._blocks.flags.writeable = False

    @property
    def dim(self):
        return self._dim

    @property
    def norb(self):
        return self._norb

    @property
    def hopping_offsets(self):
        """Read-only ``(n, dim)`` int64 offsets, in insertion order."""
        return self._offsets

    @property
    def hopping_blocks(self):
        """Read-only ``(n, norb, norb)`` blocks, row i at ``hopping_offsets[i]``."""
        return self._blocks

    @property
    def hoppings(self):
        """Hopping map as a fresh dict of read-only blocks, in insertion order."""
        return dict(zip(map(tuple, self._offsets.tolist()), self._blocks))

    def offsets(self):
        return sorted(map(tuple, self._offsets.tolist()))

    def block(self, offset):
        """Hopping block at ``offset`` (zero matrix if absent)."""
        blk = self.hoppings.get(tuple(int(c) for c in offset))
        return np.zeros((self._norb, self._norb), dtype=complex) if blk is None else blk

    def hopping_range(self):
        """Per-axis maximum |offset component| over all hoppings."""
        return tuple(np.abs(self._offsets).max(axis=0, initial=0).tolist())

    def __eq__(self, other):
        if not isinstance(other, HamiltonianSymbol):
            return NotImplemented
        if (self._dim, self._norb) != (other._dim, other._norb):
            return False
        mine, theirs = self.hoppings, other.hoppings
        return mine.keys() == theirs.keys() and all(
            np.array_equal(blk, theirs[off]) for off, blk in mine.items())

    def __repr__(self):
        return (f"HamiltonianSymbol(dim={self._dim}, norb={self._norb}, "
                f"n_hoppings={len(self._offsets)})")


@dataclass(frozen=True)
class ChiralGrading:
    """Hermitian involution Pi (Pi^2 = 1) defining a chiral symmetry."""

    matrix: np.ndarray

    def __post_init__(self):
        pi = np.asarray(self.matrix, dtype=complex)
        if pi.ndim != 2 or pi.shape[0] != pi.shape[1]:
            raise ModelError("grading must be a square matrix")
        if not np.all(np.isfinite(pi)):
            raise ModelError("grading has a non-finite entry")
        if np.max(np.abs(pi - pi.conj().T)) > HERMITICITY_TOL:
            raise ModelError("grading is not Hermitian")
        if np.max(np.abs(pi @ pi - np.eye(pi.shape[0]))) > 1e-10:
            raise ModelError("grading is not an involution (Pi^2 != 1)")
        pi = pi.copy()
        pi.flags.writeable = False
        object.__setattr__(self, "matrix", pi)

    @property
    def norb(self):
        return self.matrix.shape[0]

    def eigenbasis(self):
        """Unitary ``U = [plus block | minus block]`` diagonalizing Pi.

        Returns
        -------
        U : ndarray
            Columns are eigenvectors, +1 eigenvectors first.
        n_plus, n_minus : int
            Dimensions of the two eigenspaces.
        """
        vals, vecs = np.linalg.eigh(self.matrix)
        order = np.argsort(-vals)
        vals, vecs = vals[order], vecs[:, order]
        n_plus = int(np.sum(vals > 0))
        return vecs, n_plus, self.norb - n_plus


def evaluate_bloch(sym, k):
    """Bloch matrices H(k) = sum_r h_r exp(i <r, k>) for a batch of momenta.

    ``k`` has shape ``(dim,)`` for one momentum or ``(..., dim)`` for a
    batch; the result has shape ``(..., norb, norb)``.  Every matrix is
    Hermitian by the symbol invariant; the batch is checked to 1e-12 and
    symmetrized exactly before returning.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if k.shape[-1] != sym.dim:
        raise ValueError(f"momentum has shape {k.shape}, symbol has dim {sym.dim}")
    out = np.einsum("...r,rij->...ij", np.exp(1j * (k @ sym.hopping_offsets.T)),
                    sym.hopping_blocks)
    adjoint = out.conj().swapaxes(-1, -2)
    if np.max(np.abs(out - adjoint)) > HERMITICITY_TOL:
        raise ModelError("Bloch matrix failed the Hermiticity check")
    return 0.5 * (out + adjoint)


def partial_bloch(sym, axis, angle):
    """Fourier-evaluate one axis at a fixed angle, keeping the others.

    Folds every hopping ``h_{(..., l, ...)}`` with phase ``exp(i l angle)``
    into a symbol of dimension ``sym.dim - 1``.  Folding a Hermitian
    symbol along any axis yields a Hermitian symbol, so the usual
    validation applies to the result.
    """
    if sym.dim == 1:
        raise ValueError("cannot fold the only axis; use evaluate_bloch")
    if not 0 <= axis < sym.dim:
        raise ValueError(f"axis {axis} out of range for dim {sym.dim}")
    folded = {}
    for off, blk in sym.hoppings.items():
        rest = off[:axis] + off[axis + 1:]
        phase = np.exp(1j * off[axis] * angle)
        folded[rest] = folded.get(rest, 0) + blk * phase
    return HamiltonianSymbol(sym.dim - 1, sym.norb, folded)


def check_chiral(sym, grading):
    """True when Pi H(k) Pi^dagger = -H(k), i.e. Pi h_r Pi = -h_r for all r."""
    if grading.norb != sym.norb:
        raise ModelError(
            f"grading acts on {grading.norb} orbitals, symbol has {sym.norb}"
        )
    pi, blocks = grading.matrix, sym.hopping_blocks
    return bool(np.abs(pi @ blocks @ pi + blocks).max(initial=0.0) <= 1e-10)


def product_hamiltonian(h1, h2, grading):
    """Couple a 2-D symbol and a chiral 1-D symbol into a 3-D symbol.

    Builds ``H = H1 (x) Pi + 1 (x) H2`` on the orbital space
    ``C^{n1} (x) C^{n2}``.  Axis convention: ``h2`` supplies the first
    lattice coordinate, the first coordinate of ``h1`` becomes the second
    lattice coordinate, and the second coordinate of ``h1`` becomes the
    parameter axis.  The two terms anticommute because Pi anticommutes
    with H2, which gives the square identity
    H(k)^2 = H1^2 (x) 1 + 1 (x) H2^2.

    Parameters
    ----------
    h1 : HamiltonianSymbol
        dim-2 symbol (momenta eta and t).
    h2 : HamiltonianSymbol
        dim-1 chiral symbol (momentum xi).
    grading : ChiralGrading
        Grading of ``h2``; must pass :func:`check_chiral`.
    """
    if h1.dim != 2:
        raise ModelError(f"h1 must have dim 2, got {h1.dim}")
    if h2.dim != 1:
        raise ModelError(f"h2 must have dim 1, got {h2.dim}")
    if not check_chiral(h2, grading):
        raise ModelError("grading does not anticommute with h2")
    n1, n2 = h1.norb, h2.norb
    eye1 = np.eye(n1, dtype=complex)
    hoppings = {}

    def add(off, blk):
        hoppings[off] = hoppings.get(off, 0) + blk

    for (a, b), blk in h1.hoppings.items():
        add((0, a, b), np.kron(blk, grading.matrix))
    for (c,), blk in h2.hoppings.items():
        add((c, 0, 0), np.kron(eye1, blk))
    return HamiltonianSymbol(3, n1 * n2, hoppings)


def direct_sum(a, b):
    """Block-diagonal sum of two symbols of equal dimension."""
    if a.dim != b.dim:
        raise ModelError(f"dimension mismatch: {a.dim} vs {b.dim}")
    n = a.norb + b.norb
    hoppings = {}
    for off in set(a.hoppings) | set(b.hoppings):
        blk = np.zeros((n, n), dtype=complex)
        blk[: a.norb, : a.norb] = a.block(off)
        blk[a.norb:, a.norb:] = b.block(off)
        hoppings[off] = blk
    return HamiltonianSymbol(a.dim, n, hoppings)


def extend_trivially(sym):
    """Stack a dim-2 symbol into dim 3 with no hopping along axis 1.

    The two coordinates of ``sym`` land on the second lattice axis and
    the parameter axis, matching where :func:`product_hamiltonian` puts
    the dim-2 factor.
    """
    if sym.dim != 2:
        raise ModelError(f"expected a dim-2 symbol, got dim {sym.dim}")
    hoppings = {(0, a, b): blk for (a, b), blk in sym.hoppings.items()}
    return HamiltonianSymbol(3, sym.norb, hoppings)


def perturb_onsite(sym, norm, seed):
    """Add a seeded random Hermitian on-site block of given spectral norm."""
    rng = np.random.default_rng(seed)
    n = sym.norb
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    herm = 0.5 * (raw + raw.conj().T)
    herm *= norm / np.linalg.norm(herm, 2)
    hoppings = dict(sym.hoppings)
    zero = (0,) * sym.dim
    hoppings[zero] = hoppings.get(zero, np.zeros((n, n))) + herm
    return HamiltonianSymbol(sym.dim, n, hoppings)


def qwz_model(mass):
    """Two-band Chern insulator on Z^2.

    H(xi, eta) = sin(xi) sx + sin(eta) sy + (mass + cos(xi) + cos(eta)) sz.
    Topological for 0 < |mass| < 2, trivial for |mass| > 2.
    """
    return HamiltonianSymbol(2, 2, {
        (1, 0): -0.5j * sx + 0.5 * sz,
        (-1, 0): 0.5j * sx + 0.5 * sz,
        (0, 1): -0.5j * sy + 0.5 * sz,
        (0, -1): 0.5j * sy + 0.5 * sz,
        (0, 0): mass * sz,
    })


def chiral_shift_model(steps=1):
    """Chiral 1-D shift: H(k) = [[0, exp(i steps k)], [exp(-i steps k), 0]].

    Returns (symbol, grading) with grading sz.  The winding of the
    off-diagonal determinant equals ``steps``; the boundary-map
    orientation used by ``invariants.winding_number`` maps this model
    to ``-steps``.
    """
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    sym = HamiltonianSymbol(1, 2, {(steps,): e12, (-steps,): e12.conj().T})
    return sym, ChiralGrading(sz)


@dataclass(frozen=True)
class BuiltinModel:
    """Catalog entry: a symbol, an optional grading, and a one-line blurb."""

    symbol: HamiltonianSymbol
    grading: ChiralGrading | None
    description: str


def builtin_models():
    """Catalog of built-in models keyed by name."""
    h1 = qwz_model(-1.0)
    h1_trivial = qwz_model(-3.0)
    h2, pi = chiral_shift_model(1)
    h2_double, _ = chiral_shift_model(2)
    catalog = {
        "h1_example": BuiltinModel(h1, None, "two-band Chern insulator, mass -1"),
        "h1_trivial": BuiltinModel(h1_trivial, None, "two-band insulator, mass -3, Chern 0"),
        "h2_example": BuiltinModel(h2, pi, "chiral single shift, winding_number -1"),
        "h2_double_shift": BuiltinModel(h2_double, pi, "chiral double shift, winding_number -2"),
        "product_example": BuiltinModel(
            product_hamiltonian(h1, h2, pi), None,
            "coupled product of h1_example and h2_example, corner flow +1",
        ),
        "onsite_gapped": BuiltinModel(
            HamiltonianSymbol(3, 2, {(0, 0, 0): sz}), None,
            "purely on-site sz, trivially gapped",
        ),
        "onsite_gapped_2d": BuiltinModel(
            HamiltonianSymbol(2, 2, {(0, 0): sz}), None,
            "dim-2 on-site sz for Chern baselines",
        ),
        "h1_stacked": BuiltinModel(
            extend_trivially(h1), None,
            "h1_example stacked with no axis-1 hopping; edge-gap negative control",
        ),
    }
    return catalog


# ---------------------------------------------------------------------------
# model files

def _encode_block(blk):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(blk)]


def _decode_block(raw, norb, where):
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelError(f"{where}: block is not a numeric array ({exc})") from exc
    if arr.shape != (norb, norb, 2):
        raise ModelError(f"{where}: expected shape ({norb}, {norb}, 2), got {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def save_model(sym, path, grading=None):
    """Write a symbol (and optional grading) to a JSON model file.

    Only offsets whose leading nonzero component is positive are listed,
    plus the zero offset; the loader restores Hermitian partners.
    """
    entries = []
    for off in sym.offsets():
        lead = next((c for c in off if c != 0), 0)
        if lead < 0:
            continue
        entries.append({"offset": list(off), "block": _encode_block(sym.block(off))})
    doc = {"dim": sym.dim, "norb": sym.norb, "hoppings": entries}
    if grading is not None:
        doc["chiral"] = _encode_block(grading.matrix)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path):
    """Read a JSON model file.

    Returns
    -------
    (HamiltonianSymbol, ChiralGrading or None)

    Offsets missing their Hermitian partner get it generated as the
    conjugate transpose; if both members of a pair are listed they are
    cross-validated by the symbol constructor.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelError(f"{path}: not valid JSON ({exc})") from exc
    try:
        dim, norb = doc["dim"], doc["norb"]
        raw_hoppings = list(doc["hoppings"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"{path}: missing or malformed required key ({exc!r})") from exc
    hoppings = {}
    for entry in raw_hoppings:
        try:
            raw_offset, raw_block = entry["offset"], entry["block"]
        except (KeyError, TypeError) as exc:
            raise ModelError(f"{path}: malformed hoppings entry ({exc!r})") from exc
        if not (isinstance(raw_offset, list) and all(map(_is_integer, raw_offset))):
            raise ModelError(f"{path}: offset {raw_offset!r} is not a list of integers")
        off = tuple(raw_offset)
        if len(off) != dim:
            raise ModelError(f"{path}: offset {off} has wrong length for dim {dim}")
        if off in hoppings:
            raise ModelError(f"{path}: duplicate offset {off}")
        hoppings[off] = _decode_block(raw_block, norb, f"{path}: offset {off}")
    for off in list(hoppings):
        minus = tuple(-c for c in off)
        if minus not in hoppings:
            hoppings[minus] = hoppings[off].conj().T
    sym = HamiltonianSymbol(dim, norb, hoppings)
    grading = None
    if "chiral" in doc:
        grading = ChiralGrading(_decode_block(doc["chiral"], norb, f"{path}: chiral"))
    return sym, grading
