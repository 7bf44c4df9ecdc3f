"""Brute-force reference computations for the test suite.

Everything here recomputes a library quantity by a deliberately different
route (dense SVD, closed-form recursions, exhaustive grids) so that the
production pipeline can be checked against an implementation that shares
none of its code.  There are two exceptions: ``oracle_edge_gap_scan``, the
unscreened loop kept as the reference for the screened edge scan, and
``oracle_edge_spectral_flow``, the per-angle dense loop kept as the
reference for the strip-solved edge flow.  Kept in the test tree on
purpose; nothing in the package imports this module.
"""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np

KERNEL_TOL = 1e-6
ASSIGNMENT_MAX = 6


def oracle_halfline_kernel(sym, grading, W, tol=KERNEL_TOL):
    """Near-wall kernel of the W-site half-line section of a dim-1 symbol.

    The section is built densely and its null space extracted by SVD.
    A finite section also picks up mirror kernel states pinned to the far
    (artificial) wall, so the null basis is split by localization: only
    states with more than half their weight on sites < W/2 are kept.

    Returns
    -------
    (int, list of int)
        Kernel dimension and the sorted grading eigenvalues (each +1 or
        -1) of the grading compressed to the near-wall kernel.
    """
    n = sym.norb
    h = np.zeros((W * n, W * n), dtype=complex)
    for off, blk in sym.hoppings.items():
        step = off[0]
        for col in range(W):
            row = col + step
            if 0 <= row < W:
                h[row * n:(row + 1) * n, col * n:(col + 1) * n] = blk
    _, svals, vh = np.linalg.svd(h)
    dim_total = int(np.sum(svals <= tol))
    if dim_total == 0:
        return 0, []
    null = vh[-dim_total:].conj().T
    near = np.zeros(W * n)
    near[: (W // 2) * n] = 1.0
    overlap = null.conj().T @ (near[:, None] * null)
    wvals, wvecs = np.linalg.eigh(0.5 * (overlap + overlap.conj().T))
    keep = wvecs[:, wvals > 0.5]
    if keep.shape[1] == 0:
        return 0, []
    basis = null @ keep
    pi = np.kron(np.eye(W), grading.matrix)
    comp = basis.conj().T @ pi @ basis
    eigs = np.linalg.eigvalsh(0.5 * (comp + comp.conj().T))
    out = [int(round(e)) for e in eigs]
    if any(abs(e - r) > 1e-6 for e, r in zip(eigs, out)) or any(
            r not in (-1, 1) for r in out):
        raise AssertionError(f"grading not diagonal on the kernel: {eigs}")
    return keep.shape[1], sorted(out)


def shift_recursion_kernel(sym, grading, W):
    """Closed-form near-wall kernel for pure shift symbols, or None.

    Applies when the symbol has exactly the two hoppings +s and -s with
    adjoint nilpotent blocks and no on-site term.  Solving H psi = 0 on
    sites 0..W-1 by forward substitution then leaves exactly s free
    amplitudes at the near wall, all in the orbital the block maps out
    of; their grading eigenvalue is read off that orbital.
    """
    offs = sorted(sym.hoppings)
    if len(offs) != 2:
        return None
    s = offs[1][0]
    if s <= 0 or offs[0][0] != -s:
        return None
    blk = sym.hoppings[(s,)]
    if not np.allclose(sym.hoppings[(-s,)], blk.conj().T, atol=1e-12):
        return None
    if not np.allclose(blk @ blk, 0.0, atol=1e-12):
        return None
    if _null_columns(np.vstack([blk, blk.conj().T])).shape[1] != 0:
        return None
    if W < 2 * s:
        raise ValueError(f"section too short for recursion check: W={W}")
    # H psi = 0 at row x reads blk psi_{x-s} + blk^T* psi_{x+s} = 0, and
    # nilpotency makes the two images orthogonal, so each term vanishes
    # separately: psi_n in ker(blk) for n < W-s, psi_n in ker(blk^T*) for
    # n >= s.  Sites n < s see only the first constraint; the near-wall
    # kernel is s copies of ker(blk).
    kernel_dirs = _null_columns(blk)
    if kernel_dirs.shape[1] == 0:
        return 0, []
    comp = kernel_dirs.conj().T @ grading.matrix @ kernel_dirs
    lams = np.linalg.eigvalsh(0.5 * (comp + comp.conj().T))
    eigs = []
    for lam in lams:
        r = int(round(float(lam)))
        if abs(lam - r) > 1e-9 or r not in (-1, 1):
            raise AssertionError(f"grading not diagonal on ker: {lams}")
        eigs.extend([r] * s)
    return len(eigs), sorted(eigs)


def _null_columns(a, tol=1e-12):
    _, svals, vh = np.linalg.svd(a)
    rank = int(np.sum(svals > tol))
    return vh[rank:].conj().T


def oracle_chern_refine(sym):
    """First Chern number by plaquette field strength on three grids.

    Computed independently at 20^2, 40^2 and 80^2 points; any
    disagreement is an error, not a value.
    """
    values = [_fhs_chern(sym, n) for n in (20, 40, 80)]
    if len(set(values)) != 1:
        raise AssertionError(f"field strength disagrees across grids: {values}")
    return values[0]


def _fhs_chern(sym, n):
    from cornerlab import evaluate_bloch

    ks = 2 * np.pi * np.arange(n) / n
    frames = []
    for kx in ks:
        row = []
        for ky in ks:
            vals, vecs = np.linalg.eigh(evaluate_bloch(sym, (kx, ky)))
            if np.min(np.abs(vals)) < 1e-9:
                raise AssertionError(f"gap closes at ({kx:.3f}, {ky:.3f})")
            row.append(vecs[:, vals < 0])
        frames.append(row)
    total = 0.0
    for i in range(n):
        for j in range(n):
            u1 = np.linalg.det(frames[i][j].conj().T @ frames[(i + 1) % n][j])
            u2 = np.linalg.det(
                frames[(i + 1) % n][j].conj().T @ frames[(i + 1) % n][(j + 1) % n])
            u3 = np.linalg.det(
                frames[i][(j + 1) % n].conj().T @ frames[(i + 1) % n][(j + 1) % n])
            u4 = np.linalg.det(frames[i][j].conj().T @ frames[i][(j + 1) % n])
            total += np.angle(u1 * u2 / (u3 * u4))
    c = total / (2 * np.pi)
    if abs(c - round(c)) > 1e-6:
        raise AssertionError(f"non-integer field strength sum: {c}")
    return int(round(c))


def oracle_flow_smalls(family, n_t=1024):
    """Net spectral flow of a small closed Hermitian family through zero.

    Dense eigenvalues on an n_t-point closed grid, sorted per point; the
    flow is the signed count of zero transitions of each sorted level,
    wrap included.  No branch tracking, which is why this is only valid
    for small matrices (M <= 8) with well-resolved spectra.
    """
    sample = np.asarray(family(0.0))
    if sample.shape[0] > 8:
        raise ValueError(f"oracle limited to M <= 8, got M={sample.shape[0]}")
    ts = 2 * np.pi * np.arange(n_t) / n_t
    evs = np.sort(
        np.linalg.eigvalsh(np.array([family(t) for t in ts])), axis=1)
    nxt = np.roll(evs, -1, axis=0)
    up = int(np.sum((evs <= 0) & (nxt > 0)))
    down = int(np.sum((evs > 0) & (nxt <= 0)))
    return up - down


# ---------------------------------------------------------------------------
# real-space corner and edge-strip matrices, one site pair at a time
#
# Slopes are given as a Fraction or as +-math.inf: the alpha side of p/q
# keeps n >= (p/q) m, the beta side keeps n <= (p/q) m, beta = +inf keeps
# m >= 0 and alpha = -inf keeps m <= 0.  The entry from column site b to
# row site a is h_(a - b), with the parameter axis of a dim-3 symbol folded
# as sum_l h_(a - b, l) exp(-i l t).

def fraction_depth(slope, which, m, n):
    """Layer index of site (m, n) from the boundary line, by exact Fractions."""
    if slope == math.inf:
        return m
    if slope == -math.inf:
        return -m
    if which == "alpha":
        return n - math.ceil(Fraction(slope) * m)
    return math.floor(Fraction(slope) * m) - n


def _folded_blocks(sym, t):
    folded = {}
    for off, blk in sym.hoppings.items():
        phase = np.exp(-1j * off[2] * t) if len(off) == 3 else 1.0
        folded[off[:2]] = folded.get(off[:2], 0) + blk * phase
    return folded


def oracle_corner_matrix(sym, alpha, beta, L, t):
    """Corner section of a dim-3 symbol on the wedge (alpha, beta) cut to |.|_max <= L.

    Returns the lexicographically ordered sites and the dense matrix.
    """
    sites = [(m, n) for m in range(-L, L + 1) for n in range(-L, L + 1)
             if fraction_depth(alpha, "alpha", m, n) >= 0
             and fraction_depth(beta, "beta", m, n) >= 0]
    folded = _folded_blocks(sym, t)
    norb = sym.norb
    h = np.zeros((len(sites) * norb, len(sites) * norb), dtype=complex)
    for ia, a in enumerate(sites):
        for ib, b in enumerate(sites):
            blk = folded.get((a[0] - b[0], a[1] - b[1]))
            if blk is not None:
                h[ia * norb:(ia + 1) * norb, ib * norb:(ib + 1) * norb] = blk
    return sites, h


def oracle_strip_matrix(sym, slope, which, W, k_edge, t=None):
    """Edge strip of a dim-2 or dim-3 symbol: one supercell, W layers deep.

    The supercell of p/q is the columns 0 <= m < q with translation
    v = (q, p); an infinite slope has the single row n = 0 and v = (0, 1).
    Entry (a, b) sums h_(a + j v - b) exp(i k_edge j) over all integers j.
    Returns the lexicographically ordered sites and the dense matrix.
    """
    if abs(slope) == math.inf:
        sign = 1 if slope > 0 else -1
        sites, v = [(sign * d, 0) for d in range(W)], (0, 1)
    else:
        frac = Fraction(slope)
        sites, v = [], (frac.denominator, frac.numerator)
        for m in range(frac.denominator):
            if which == "alpha":
                sites += [(m, math.ceil(frac * m) + d) for d in range(W)]
            else:
                sites += [(m, math.floor(frac * m) - d) for d in range(W)]
    sites.sort()
    folded = _folded_blocks(sym, t)
    reach = max(max(abs(c) for c in d) for d in folded) + max(map(abs, v)) + 1
    norb = sym.norb
    h = np.zeros((len(sites) * norb, len(sites) * norb), dtype=complex)
    for ia, a in enumerate(sites):
        for ib, b in enumerate(sites):
            for j in range(-reach, reach + 1):
                blk = folded.get((a[0] + j * v[0] - b[0], a[1] + j * v[1] - b[1]))
                if blk is not None:
                    h[ia * norb:(ia + 1) * norb, ib * norb:(ib + 1) * norb] += (
                        blk * np.exp(1j * k_edge * j))
    return sites, h


def oracle_edge_gap_scan(sym, pair, W, grid):
    """``edge_gap_scan`` without skipping a strip: every strip of the
    ``grid = (nk, nt)`` product grid goes through dense ``eigh``, degeneracy
    sharpening and near-wall weights, in grid order.  A state counts unless
    the attribution rule gives it to the far wall (1 - weight >= 0.9).

    This is the reference the scan must reproduce within rounding (its
    full-path strips solve only their clusters in reach, by MRRR); unlike
    the rest of this module it reuses the package's assembler, spectral
    routines and attribution threshold, since what it checks is which strips
    the scan skips and which eigenpairs it solves, not which states count.
    """
    from cornerlab import assembly, geometry, spectra
    from cornerlab.invariants import ATTRIBUTION_MIN

    nk, nt = grid
    minima = []
    for which, slope in ((geometry.ALPHA, pair.alpha), (geometry.BETA, pair.beta)):
        def near(site, which=which, slope=slope):
            return geometry.strip_depth(slope, which, site) < W / 2

        best = math.inf
        for k_edge in 2 * np.pi * np.arange(nk) / nk:
            for t in 2 * np.pi * np.arange(nt) / nt:
                op = assembly.assemble_edge_strip(sym, slope, which, W, k_edge, t=t)
                sl = spectra.sharpen_degeneracies(
                    spectra.diagonalize(op), near, matrix=op.matrix)
                counted = ~(1 - spectra.all_weights(sl, near) >= ATTRIBUTION_MIN)
                best = min(best, float(np.min(np.abs(sl.eigenvalues[counted]), initial=math.inf)))
        minima.append(best)
    return minima[0], minima[1]


def oracle_edge_spectral_flow(sym, W, n_t):
    """``edge_spectral_flow`` by the per-angle dense loop: at every angle the
    symbol is folded with ``partial_bloch(sym, 1, -t)``, compressed with
    ``assemble_halfline`` and fully diagonalized; each slice is given its t.

    Returns the net flow and the tracked crossings, whose directions must sum
    to 0 around the loop; a crossing it cannot attribute raises TrackingError.
    Like ``oracle_edge_gap_scan`` it reuses the package's branch linking,
    since what it checks is the strip family and the strip solve (banded
    Cholesky clearance, then MRRR near 0) that replace this loop.
    """
    from cornerlab import assembly, invariants, spectra
    from cornerlab.errors import TrackingError
    from cornerlab.symbol import partial_bloch

    window = 0.45 * invariants._bulk_gap_on_grid(sym, 32)

    def near(site):
        return site[0] < W / 2

    def build(t):
        op = assembly.assemble_halfline(partial_bloch(sym, 1, -t), W)
        sl = dataclasses.replace(spectra.diagonalize(op), t=float(t))
        return spectra.sharpen_degeneracies(sl, near, matrix=op.matrix)

    track = spectra.track_branches(
        [build(t) for t in invariants._offset_grid(n_t)], window,
        weight_fn=lambda sl, i: spectra.localization_weight(sl, i, near),
        jump_bound=invariants._parameter_rate(sym, 1), refine_fn=build)
    raw = spectra.crossings(track)
    assert sum(c.direction for c in raw) == 0
    # A crossing state counts with >= 90% of its weight near the wall and is
    # left out with <= 10%; anything between is refused.
    if any(0.1 < c.weight < 0.9 for c in raw):
        raise TrackingError("a crossing state weighs between 0.1 and 0.9 near the wall")
    return sum(c.direction for c in raw if c.weight >= 0.9), raw


def oracle_assignment(weights):
    """Maximum-total-weight one-to-one assignment by exhaustive search.

    Tries every injective map from the smaller side of the ``m`` x ``n``
    matrix into the larger one, for at most ``ASSIGNMENT_MAX`` states per
    side.  Returns ``(best, runner_up, pairs)``: the optimal total, the best
    total of any other map (-inf if there is none), and the optimal pairs
    ``(row, col)`` sorted by row.
    """
    weights = np.asarray(weights, dtype=float)
    if max(weights.shape) > ASSIGNMENT_MAX:
        raise ValueError(f"exhaustive assignment is limited to {ASSIGNMENT_MAX} per side")
    flip = weights.shape[0] > weights.shape[1]
    small = weights.T if flip else weights
    totals = sorted(
        ((math.fsum(small[r, c] for r, c in enumerate(cols)), cols)
         for cols in itertools.permutations(range(small.shape[1]), small.shape[0])),
        key=lambda item: -item[0])
    best, cols = totals[0]
    pairs = sorted((c, r) if flip else (r, c) for r, c in enumerate(cols))
    return best, totals[1][0] if len(totals) > 1 else -math.inf, pairs
