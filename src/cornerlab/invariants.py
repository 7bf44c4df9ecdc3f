"""Integer invariants of gapped lattice models and their corner counterpart.

The bulk side: Chern number of the Fermi projection (class A, two
dimensions), winding number of the off-diagonal Bloch block (class AIII,
one dimension), and the weak two-torus invariants of a three-dimensional
symbol.  The boundary side: the grading signature of a half-line kernel
and the spectral flow of a corner-compressed family.  Sign conventions
are fixed once, so that the bulk-edge identities hold as equalities; see
the individual docstrings.

Every function either returns an exact integer (rounded only after a
residual check) or raises.
"""

import json
import math
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np
import scipy.linalg

from . import assembly, geometry, spectra
from .errors import GapClosedError, ModelError, ResidualError, TrackingError
from .symbol import check_chiral, evaluate_bloch, partial_bloch  # noqa: F401 (traced by name)

GAP_FLOOR = 1e-8
INT_RESIDUAL_TOL = 1e-6
KERNEL_TOL = 1e-6
ATTRIBUTION_MIN = 0.9
_EDGE_GAP_FLOOR = 0.1
_FLOW_EDGE_W = 16
_FLOW_EDGE_GRID = (8, 8)
_WEAK_GRID = 20
_LINK_FLOOR = 1e-3
_FLUX_CEILING = 0.99 * np.pi
_MERGE_TOL = 1e-6


class _RefineNeeded(Exception):
    """Internal: the resolution is too coarse; retry once at double resolution."""


def _refined(value_at, n, what):
    """``value_at(n)``, else ``value_at(2 n)``, else ResidualError.

    ``value_at(m)`` returns a certified result at resolution m or raises
    _RefineNeeded; this is the one place a resolution is refined.
    """
    try:
        return value_at(n)
    except _RefineNeeded as exc:
        first = exc
    try:
        return value_at(2 * n)
    except _RefineNeeded as exc:
        raise ResidualError(
            f"{what} not certified at {n} ({first}) or at {2 * n} ({exc})") from exc


def _attributed(weights, error):
    """One rule for the kernel and both flows: a state whose weight on the
    mask is >= ATTRIBUTION_MIN counts, one with 1 - weight >= it does not,
    and any other weight (NaN too) raises ``error``."""
    weights = np.asarray(weights, dtype=float)
    if ambiguous := np.sum(~((weights >= ATTRIBUTION_MIN) | (1 - weights >= ATTRIBUTION_MIN))):
        raise error(f"{ambiguous} state(s) weigh between {1 - ATTRIBUTION_MIN:.1f} "
                    f"and {ATTRIBUTION_MIN} on the mask")
    return weights >= ATTRIBUTION_MIN


def _integer(total, m):
    """``(integer, residual, m)`` for a sum that must be integral at resolution m."""
    total = float(total)
    residual = abs(total - round(total))
    if residual > INT_RESIDUAL_TOL:
        raise _RefineNeeded(f"residual {residual:.2e}")
    return int(round(total)), residual, m


# ---------------------------------------------------------------------------
# Bloch grids; Chern number by the lattice field-strength method

def _bloch_grid(sym, axes, n):
    """Momenta and Bloch matrices on the n-point grid of ``axes``, in C order.

    The remaining axes sit at 0.  Returns ``k`` of shape
    ``(n, ..., n, dim)`` and the matching ``(n, ..., n, norb, norb)`` stack.
    ``n`` is checked like a lattice size.
    """
    n = geometry.lattice_size("grid", n)
    ks = 2 * np.pi * np.arange(n) / n
    k = np.zeros((n,) * len(axes) + (sym.dim,))
    grids = np.meshgrid(*([ks] * len(axes)), indexing="ij")
    k[..., list(axes)] = np.stack(grids, axis=-1)
    return k, evaluate_bloch(sym, k)


def _check_gap(gaps, k):
    """Refuse at the first grid point, in C order, where the gap closes."""
    closed = gaps <= GAP_FLOOR
    if np.any(closed):
        at = np.unravel_index(np.argmax(closed), closed.shape)
        where = ",".join(f"{c:.3f}" for c in k[at])
        raise GapClosedError(f"Bloch gap at 0 closes ({gaps[at]:.2e}) at k=({where})")


def _fermi_rank(vals, k):
    """Number of Bloch bands below 0, refused unless it is constant on the grid."""
    _check_gap(np.min(np.abs(vals), axis=-1), k)
    ranks = np.sum(vals < 0, axis=-1)
    if np.any(ranks != ranks.flat[0]):
        raise GapClosedError("Fermi rank is not constant across the grid")
    return int(ranks.flat[0])


def _c1_field_strength(sym, axes, n):
    """First Chern number of the Fermi projection on an n x n grid of ``axes``.

    Plaquette fluxes are principal-branch logs of the four-link Wilson
    loop; their sum over the whole grid divided by 2 pi is exactly
    integral whenever every plaquette is admissible (|flux| < pi), which
    is what makes this a reliable integer pipeline rather than a
    quadrature.  Returns ``_integer``'s triple.
    """
    k, h = _bloch_grid(sym, axes, n)
    vals, vecs = np.linalg.eigh(h)
    frames = vecs[..., : _fermi_rank(vals, k)]
    adjoint = frames.conj().swapaxes(-1, -2)
    ux = np.linalg.det(adjoint @ np.roll(frames, -1, axis=0))
    uy = np.linalg.det(adjoint @ np.roll(frames, -1, axis=1))
    if min(np.min(np.abs(ux)), np.min(np.abs(uy))) < _LINK_FLOOR:
        raise _RefineNeeded("near-singular link variable")
    # Plaquettes are traversed second-axis-first; this is the orientation
    # under which a unit-skyrmion Bloch map has occupied-band c1 = +1.  The
    # opposite traversal would flip the sign of every Chern output.
    loop = uy * np.roll(ux, -1, axis=1) * np.roll(uy, -1, axis=0).conj() * ux.conj()
    flux = np.angle(loop)
    if np.max(np.abs(flux)) >= _FLUX_CEILING:
        raise _RefineNeeded("inadmissible plaquette flux")
    return _integer(np.sum(flux) / (2 * np.pi), n)


def _chern_detail(sym, grid):
    if sym.dim != 2:
        raise ModelError(f"Chern number needs a dim-2 symbol, got dim {sym.dim}")
    return _refined(partial(_c1_field_strength, sym, (0, 1)), grid, "Chern number")


def chern_number(sym, grid=40):
    """Two-dimensional class-A invariant: minus the first Chern number.

    The Chern number c1 of the Fermi projection (bands below zero) is
    computed by the lattice field-strength method on a ``grid x grid``
    Brillouin mesh; the invariant returned is -c1, matching the relation
    between the TKNN number and the edge flow used throughout.

    ``grid`` must be an integer of at least 1 (GeometryError otherwise).
    A grid with a near-singular link, an inadmissible plaquette flux or a
    non-integral flux sum is refined once to ``2 grid``; if that grid fails
    too, ResidualError is raised.  GapClosedError is raised if the Bloch
    gap at zero closes on the mesh.
    """
    value, _, _ = _chern_detail(sym, grid)
    return -value


# ---------------------------------------------------------------------------
# winding number and half-line kernel signature (1-D chiral models)

def _grading_frame(sym, grading):
    if not check_chiral(sym, grading):
        raise ModelError("grading does not anticommute with the symbol")
    u, n_plus, n_minus = grading.eigenbasis()
    if n_plus != n_minus:
        raise ModelError(
            f"grading blocks have sizes {n_plus} and {n_minus}; the "
            "off-diagonal block is not square, so its determinant (and the "
            "winding number) is undefined"
        )
    return u, n_plus


def _winding_detail(sym, grading, grid):
    if sym.dim != 1:
        raise ModelError(f"winding number needs a dim-1 symbol, got dim {sym.dim}")
    u, n_plus = _grading_frame(sym, grading)
    rate = _parameter_rate(sym, 0)

    def value_at(m):
        k, h = _bloch_grid(sym, (0,), m)
        q = (u.conj().T @ h @ u)[:, :n_plus, n_plus:]
        sigma = np.linalg.svd(q, compute_uv=False)[:, -1]
        _check_gap(sigma, k)
        # Between samples sigma_min(q) stays above sigma_lo - rate dk / 2
        # (Weyl), and |d arg det q / dk| <= n_plus rate / sigma_min(q), so
        # every principal-branch step below is the true phase change.
        dk = 2 * np.pi / m
        sigma_lo = np.minimum(sigma, np.roll(sigma, -1))
        if not np.all(n_plus * rate * dk < np.pi * (sigma_lo - rate * dk / 2)):
            raise _RefineNeeded("phase steps not certified below pi")
        dets = np.linalg.det(q)
        return _integer(np.sum(np.angle(np.roll(dets, -1) / dets)) / (2 * np.pi), m)

    return _refined(value_at, grid, "winding number")


def winding_number(sym, grading, grid=256):
    """One-dimensional class-AIII invariant of a chiral symbol.

    In the grading eigenbasis (plus block first) the Bloch matrix is
    off-block-diagonal; the winding of det of its upper-right block is
    accumulated around the Brillouin circle and the invariant is its
    minus.  Unequal grading blocks are rejected before any spectral
    check, since the determinant is undefined in that case.

    ``grid`` must be an integer of at least 1 (GeometryError otherwise).
    Each phase step is certified below pi: with ``rate`` the sum of
    |offset| times the norm of each hopping block, ``dk = 2 pi / grid`` and
    sigma_lo the smaller least singular value of the block at the step's
    ends, ``n_plus rate dk < pi (sigma_lo - rate dk / 2)`` must hold on every
    step.  A grid where it fails, or where the sum is not integral, is
    refined once to ``2 grid``; if that fails too, ResidualError is raised.
    """
    value, _, _ = _winding_detail(sym, grading, grid)
    return -value


def _bulk_gap_on_grid(sym, n):
    """Smallest |eigenvalue| of the Bloch matrix over a full n^dim mesh, refused if it closes."""
    k, h = _bloch_grid(sym, range(sym.dim), n)
    gaps = np.min(np.abs(np.linalg.eigvalsh(h)), axis=-1)
    _check_gap(gaps, k)
    return float(np.min(gaps))


def _near_wall(slope, which, region, W):
    """Membership in the sites of ``region`` less than W/2 deep: the far wall
    of a W-layer strip hosts the states of the opposite compression."""
    depth = geometry.strip_depth(slope, which, region.sites)
    return {s for s, d in zip(region.sites, depth) if d < W / 2}.__contains__


def _halfline_kernel_states(sym, grading, W):
    """Grading form on the near-kernel of the half-line compression, and W.

    Raises _RefineNeeded if W is below twice the hopping range, where the
    near half reaches into the far wall's kernel, or if some near-zero state
    cannot be attributed to either wall at this W.
    """
    op = assembly.assemble_halfline(sym, W)
    if W < 2 * sym.hopping_range()[0]:
        raise _RefineNeeded("W is below twice the hopping range")
    near = _near_wall(geometry.Slope.plus_inf(), geometry.BETA, op.region, W)
    sl = spectra.sharpen_degeneracies(spectra.diagonalize(op, KERNEL_TOL), near, matrix=op.matrix)
    idx = np.nonzero(np.abs(sl.eigenvalues) < KERNEL_TOL)[0]
    v = sl.eigenvectors[:, idx[_attributed(spectra.all_weights(sl, near)[idx], _RefineNeeded)]]
    form = v.conj().T @ np.kron(np.eye(W), grading.matrix) @ v
    return 0.5 * (form + form.conj().T), W


def _kernel_detail(sym, grading, W):
    """``(invariant, W)``: :func:`kernel_signature` and the W it settled on."""
    W = geometry.lattice_size("W", W)
    if sym.dim != 1:
        raise ModelError(f"kernel signature needs a dim-1 symbol, got dim {sym.dim}")
    if not check_chiral(sym, grading):
        raise ModelError("grading does not anticommute with the symbol")
    _bulk_gap_on_grid(sym, 64)
    form, W = _refined(partial(_halfline_kernel_states, sym, grading), W, "half-line kernel")
    if form.shape[0] == 0:
        return 0, W
    chis = np.linalg.eigvalsh(form)
    if np.any(np.abs(chis) < 0.9):
        raise ResidualError(
            "kernel states lack definite grading sign; increase W or lower "
            "the kernel tolerance"
        )
    signature = int(np.sum(chis > 0) - np.sum(chis < 0))
    return -signature, W


def kernel_signature(sym, grading, W=40):
    """Chiral invariant read off the kernel of the half-line compression.

    The whole clusters of the compression onto sites 0..W-1 that meet |lambda|
    < the kernel tolerance are solved (``spectra.diagonalize``); those below it
    with at least 90% of their weight on the near half represent the
    half-infinite kernel (their mirror images at the far wall belong to the
    opposite compression and are discarded).  The return value is minus the
    signature of the grading form restricted to that span, the orientation
    that makes the bulk-edge identity with :func:`winding_number` an equality.

    ``W`` must be an integer of at least 1 that exceeds the hopping range
    (GeometryError otherwise).  If W is below twice the hopping range, or
    a near-zero state straddles both walls, W is doubled once; if the
    doubled W fails too, ResidualError is raised.  A Bloch gap closing on
    a 64-point grid raises GapClosedError.
    """
    return _kernel_detail(sym, grading, W)[0]


# ---------------------------------------------------------------------------
# edge gap scan

def _band_square(bands):
    """``(squares, rho)`` of Hermitian strips in lower band storage of bandwidth b.

    ``bands[..., d, c] = A[c + d, c]`` (:meth:`assembly.OperatorFamily.banded`,
    any leading axes) with the diagonal read as real, as LAPACK reads it.
    ``squares`` holds A² = A Aᴴ in the same storage with bandwidth 2b, and
    ``rho`` the max absolute row sum of each A.  Row r of A is gathered as its
    window ``A[r, r - b .. r + b]``, the upper half by Hermitian symmetry, and
    ``A²[r, r - d]`` is the dot product of the windows of rows r and r - d on
    their common columns.  No dense matrix is formed: memory and work are
    O(dof · b) and O(dof · b²) per strip.
    """
    b, n = bands.shape[-2] - 1, bands.shape[-1]
    w = 2 * b + 1
    rows = np.zeros(bands.shape[:-2] + (n, w), dtype=complex)
    rows[..., b] = bands[..., 0, :].real
    for d in range(1, b + 1):
        rows[..., d:, b - d] = bands[..., d, :n - d]
        rows[..., :n - d, b + d] = bands[..., d, :n - d].conj()
    squares = np.zeros(bands.shape[:-2] + (w, n), dtype=complex)
    for d in range(min(w, n)):
        squares[..., d, :n - d] = np.vecdot(rows[..., :n - d, d:], rows[..., d:, :w - d])
    return squares, np.abs(rows).sum(axis=-1).max(axis=-1)


def _clears(square, rho, g):
    """Whether a banded Cholesky proves every |eigenvalue| of A above ``g``.

    ``square`` and ``rho`` are one strip's A² and max absolute row sum from
    :func:`_band_square`, n its dimension and w = 2b its bandwidth.  LAPACK's
    ``zpbtrf`` factors A² - (g² + η) I with

        η = (n + 2)(w + 2) ε (ρ² + g²),   ε the machine epsilon.

    A success proves λ_min(A²) > g², so min |λ(A)| > g; a failure proves
    nothing.  η covers every rounding error between the exact A² and the
    computed factor R (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed. 2002; u = ε/2, γ_m = mu / (1 - mu)):

    - forming A²: each entry is an inner product of at most w + 1 complex
      terms, so it errs by at most √2 γ_{w+2} ≤ (w + 2) ε times the same
      entry of |A|² (§3.5, with complex products as in Lemma 3.5), and
      ‖|A|²‖₂ ≤ ρ², since |A| is symmetric with max row sum ρ;
    - the shift: each diagonal entry errs by at most ε (ρ² + g² + η) / 2,
      and rounding g² + η by at most ε (g² + η);
    - the factorization: if it runs to completion, RᴴR = M + ΔM for the
      shifted matrix M with |ΔM| ≤ γ_{w+1} |Rᴴ| |R| (Thm 10.3; inner
      products of at most w + 1 terms in a band).  By Cauchy-Schwarz each
      entry of |Rᴴ| |R| is at most the largest diagonal entry of RᴴR, about
      max_i A²_ii ≤ ρ², so ‖ΔM‖₂ ≤ n (w + 2) ε ρ².

    Their sum is below η, and RᴴR is positive semidefinite, so λ_min(A²)
    exceeds g².  ``zpbtrf`` does not stop at a NaN pivot, so a factor with a
    non-finite pivot (from a NaN or an overflow anywhere) counts as a failure.
    """
    n, w = square.shape[-1], square.shape[-2] - 1
    shifted = np.array(square, order="F")
    shifted[0] -= g * g + (n + 2) * (w + 2) * np.finfo(float).eps * (rho * rho + g * g)
    factor, info = scipy.linalg.lapack.zpbtrf(shifted, lower=1, overwrite_ab=1)
    return info == 0 and bool(np.isfinite(factor[0]).all())


def _scan_grid(grid):
    """``(nk, nt)`` from an int n (meaning ``(n, n)``) or a tuple of two ints >= 1."""
    sizes = grid if isinstance(grid, tuple) else (grid, grid)
    if len(sizes) != 2 or not all(
            isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 1
            for n in sizes):
        raise ModelError(f"edge scan grid must be two integers >= 1, got {grid!r}")
    return int(sizes[0]), int(sizes[1])


def edge_gap_scan(sym, pair, W, grid=(16, 16)):
    """Smallest |eigenvalue| of both edge compressions, far-wall states aside.

    Both strips are diagonalized over an ``(k_edge, t)`` product grid of
    ``grid = (nk, nt)`` integers >= 1 (an int n means ``(n, n)``; anything
    else raises ModelError).  A state counts unless :func:`_attributed`'s
    rule gives it to the far wall (1 - weight within depth W/2 >= 0.9), which
    hosts the spectrum of the opposite compression; bulk states count.
    Returns ``(min_alpha, min_beta)``; a small value is a valid answer (the
    gap assumption fails), never an error.

    Each side evaluates one :func:`assembly.strip_family` and visits its
    strips in grid order, C order over ``(k_edge, t)``.  A strip takes the
    full path (dense solve with residual check, sharpening, weights) while no
    minimum ``best`` is known, or unless :func:`_clears` proves, by a banded
    Cholesky of its square, that every |eigenvalue| exceeds
    ``g = max(best, DEGENERACY_CLUSTER_TOL / 2) + m``.  The margin m, 1e-10
    times the max absolute row sum, covers the rounding gap to the dense
    solve and to sharpening's Rayleigh quotients, which stay in their
    cluster's hull.  The floor of g keeps every strip with a cluster
    straddling 0 on the full path: its eigenvalues either side of 0 lie
    within the cluster tolerance of each other, and sharpening can rotate
    them to values near 0.  The squares are formed from lower band storage
    in strip-depth order, one ``k_edge`` row at a time: a hop changes the
    depth by at most the hopping range, so the band is set by that range and
    the supercell width q, not by W.  On the full path,
    ``spectra.diagonalize(op, best + m)`` solves only the whole degenerate
    clusters whose hull meets (-best - m, best + m) (all of them while
    ``best`` is infinite), and those are sharpened and weighed; the rest
    cannot lower it.  Skipped strips are not residual-checked; the minima
    always come from checked pairs.  The first strip of each side, solved in
    full, makes ``best`` finite: its weights sum to the near-wall dof count,
    at least half the dofs, so some state weighs at least 0.5 and counts.
    """
    if sym.dim != 3:
        raise ModelError(f"edge gap scan needs a dim-3 symbol, got dim {sym.dim}")
    nk, nt = _scan_grid(grid)
    k_vals = 2 * np.pi * np.arange(nk) / nk
    t_vals = 2 * np.pi * np.arange(nt) / nt
    minima = []
    for which, slope in ((geometry.ALPHA, pair.alpha), (geometry.BETA, pair.beta)):
        family = assembly.strip_family(sym, slope, which, W)
        near = _near_wall(slope, which, family.region, W)
        best = math.inf
        for k_edge in k_vals:
            squares, rhos = _band_square(family.banded(k_edge, t_vals))
            for t, square, rho in zip(t_vals, squares, rhos):
                margin = 1e-10 * float(rho)
                g = max(best, spectra.DEGENERACY_CLUSTER_TOL / 2) + margin
                if best < math.inf and _clears(square, rho, g):
                    continue
                op = family.operator(k_edge, t)
                sl = spectra.sharpen_degeneracies(spectra.diagonalize(op, best + margin), near,
                                                  matrix=op.matrix)
                counted = ~(1 - spectra.all_weights(sl, near) >= ATTRIBUTION_MIN)
                best = min(best, float(np.min(np.abs(sl.eigenvalues[counted]), initial=math.inf)))
        minima.append(best)
    return minima[0], minima[1]


# ---------------------------------------------------------------------------
# spectral flow

@dataclass
class FlowCrossing:
    """One zero crossing (grouped by multiplicity when exactly coincident)."""

    t: float
    direction: int
    multiplicity: int
    weight: float
    member_weights: tuple


@dataclass
class FlowDetail:
    """Every crossing the flow counter saw, attributed to the corner or not,
    and (t, eigenvalues, weights on the mask) of every solved slice by t."""

    crossings: list
    window: float
    grid_points: int
    edge_gaps: tuple
    samples: list


def _merge_crossings(raw):
    rows = []
    for c in sorted(raw, key=lambda c: (c.t, -c.direction)):
        if rows and rows[-1].direction == c.direction and abs(rows[-1].t - c.t) <= _MERGE_TOL:
            prev = rows[-1]
            # Sorted, so that the solver's basis of a degenerate eigenspace is not output.
            members = tuple(sorted(prev.member_weights + (c.weight,)))
            rows[-1] = FlowCrossing(prev.t, prev.direction, prev.multiplicity + 1,
                                    float(np.mean(members)), members)
        else:
            rows.append(FlowCrossing(c.t, c.direction, 1, c.weight, (c.weight,)))
    return rows


def _parameter_rate(sym, axis):
    """Lipschitz bound on d lambda / d angle for the folded family."""
    norms = np.linalg.norm(sym.hopping_blocks, 2, axis=(1, 2))
    # Summed in insertion order, as a loop would: the rate enters certificates.
    return sum((np.abs(sym.hopping_offsets[:, axis]) * norms).tolist(), 0.0)


def _offset_grid(n_t):
    # Half-step offset keeps high-symmetry angles (0 and pi), where corner
    # crossings and extra degeneracies tend to sit, strictly between samples.
    return (np.arange(n_t) + 0.5) * 2 * np.pi / n_t


def _tracked_crossings(solve, n_t, window, mask, rate):
    """Every signed zero crossing of a family over the closed t-grid.

    ``solve(ts)``, called on the whole grid and on each refinement alone,
    yields per angle the finished (windowed and sharpened) slice.  Branches
    are tracked at jump bound ``rate``.  A loop of finite Hermitian matrices
    ends with as many eigenvalues below 0 as it started with, so the
    directions must sum to 0; a lost or doubled crossing raises
    TrackingError, as does a grid of fewer than 3 points, before any slice
    is built.  Returns ``(net, crossings, samples)``: net sums the directions
    of the crossings whose mean endpoint weight on ``mask``
    :func:`_attributed` counts, refusing with TrackingError, and samples
    holds ``(t, eigenvalues, weights on mask)`` of every slice, sorted by t.
    """
    if n_t < 3:
        raise TrackingError("need at least 3 grid points on the circle")
    samples = []

    def build(ts):
        slices = list(solve(ts))
        samples.extend((t, sl.eigenvalues.copy(), spectra.all_weights(sl, mask))
                       for t, sl in zip(ts, slices))
        return slices

    track = spectra.track_branches(build(_offset_grid(n_t)), window,
                                   weight_fn=partial(spectra.localization_weight, mask=mask),
                                   jump_bound=rate, refine_fn=lambda t: build(np.array([t]))[0])
    found = spectra.crossings(track)
    if total := sum(c.direction for c in found):
        raise TrackingError(
            f"tracked crossings sum to {total:+d} around a closed loop, not 0")
    counts = _attributed([c.weight for c in found], TrackingError)
    net = sum(c.direction for c, n in zip(found, counts) if n)
    return net, found, sorted(samples, key=lambda row: row[0])


def _corner_profile(site):
    # Sharpening tiebreaker: strictly ordered weights for states sitting at
    # the true corner and at the three truncation corners, so degenerate
    # clusters rotate into geometrically pure states.
    return math.exp(-(abs(site[0]) + 1.618 * abs(site[1])) / 4.0)


def corner_spectral_flow(sym, pair, L, n_t=64):
    """Net spectral flow of the corner-compressed family over the t circle.

    Parameters
    ----------
    sym : HamiltonianSymbol, dim 3
    pair : SlopePair
        Wedge geometry.
    L : int
        Truncation radius of the corner region (max norm).
    n_t : int
        Closed t-grid size, an integer of at least 1 (GeometryError
        otherwise) and of at least 3 (TrackingError for 1 and 2); samples
        sit at half-step offsets.

    Returns
    -------
    (int, FlowDetail)
        Net signed count of zero crossings (up = +1) of corner branches,
        plus per-crossing detail.  A crossing counts with weight >= 0.9 on
        the max-norm ball of radius L/2 around the wedge vertex, not with
        <= 0.1; a weight between raises TrackingError.  ``samples`` holds
        (t, eigenvalues, weights on that ball) of every solved slice,
        refinements included, sorted by t (for plotting).

    The edge gaps are scanned first, at depth 16 on an 8 x 8 grid; if the
    smaller one does not exceed the edge-gap floor 0.1, the family is not
    certified Fredholm on the circle and a GapClosedError is raised instead
    of a meaningless count.  Otherwise crossings are tracked inside the
    window |lambda| <= 0.45 times the smaller edge gap, which the edge
    spectrum clears by more than a factor of two.
    """
    if sym.dim != 3:
        raise ModelError(f"corner flow needs a dim-3 symbol, got dim {sym.dim}")
    L, n_t = geometry.lattice_size("L", L), geometry.lattice_size("n_t", n_t)
    gap_a, gap_b = edge_gap_scan(sym, pair, _FLOW_EDGE_W, _FLOW_EDGE_GRID)
    min_gap = min(gap_a, gap_b)
    if min_gap <= _EDGE_GAP_FLOOR:
        raise GapClosedError(
            f"edge gaps ({gap_a:.4f}, {gap_b:.4f}) fall below the floor "
            f"{_EDGE_GAP_FLOOR}; corner family not certified Fredholm"
        )
    window = 0.45 * min_gap
    half = L / 2

    def mask(site):
        return max(abs(site[0]), abs(site[1])) <= half

    def solve(ts):
        for op in (family.operator(t=t) for t in ts):
            yield spectra.sharpen_degeneracies(spectra.diagonalize_window(op, window),
                                               _corner_profile, matrix=op.matrix)

    family = assembly.corner_family(sym, pair, L)
    net, raw, samples = _tracked_crossings(solve, n_t, window, mask, _parameter_rate(sym, 2))
    return net, FlowDetail(_merge_crossings(raw), window, n_t, (gap_a, gap_b), samples)


def edge_spectral_flow(sym, W=40, n_t=64):
    """Spectral flow of the half-line family of a dim-2 symbol.

    One dim-2 strip family of slope +inf (sites 0..W-1) read at ``k_edge = -t``:
    the second axis folded to t with the orientation of the dim-3 corner fold.
    Zero crossings are tracked inside a window of 0.45 times the bulk gap;
    those of weight >= 0.9 within depth W/2 count, those <= 0.1 do not, and
    any other raises TrackingError.  Cross-check partner of
    :func:`chern_number`: the flow equals minus that invariant.

    A slice holds the eigenpairs in [-edge, edge], edge = 1.05 window: none,
    with no operator built, when :func:`_clears` proves every |lambda| > edge
    (the scan's bound; one :func:`_band_square` call squares the grid, a
    refinement its own), else ``spectra.diagonalize(op, edge)``.  Its MRRR
    interval holds each windowed eigenvalue 0.01 edge + 2 cluster tolerances
    inside, so a backward-stable solve neither drops nor invents one; every
    returned pair is residual-checked.

    ``W`` and ``n_t`` must be integers of at least 1 (GeometryError
    otherwise); ``n_t`` 1 and 2 raise TrackingError, since it takes 3
    samples to close the circle.  W must also exceed the hopping range of
    either axis.  A Bloch gap closing on a 32 x 32 grid raises
    GapClosedError.
    """
    if sym.dim != 2:
        raise ModelError(f"edge flow needs a dim-2 symbol, got dim {sym.dim}")
    n_t = geometry.lattice_size("n_t", n_t)
    window = 0.45 * _bulk_gap_on_grid(sym, 32)
    slope = geometry.Slope.plus_inf()
    family = assembly.strip_family(sym, slope, geometry.BETA, W)
    near = _near_wall(slope, geometry.BETA, family.region, W)
    empty = np.empty((family.region.dof, 0), dtype=complex)

    def solve(ts):
        for t, square, rho in zip(ts, *_band_square(family.banded(-ts, ts))):
            if _clears(square, rho, 1.05 * window):
                yield spectra.SpectralSlice(np.empty(0), empty, float(t), family.region)
            else:
                op = family.operator(-t, t)
                yield spectra.sharpen_degeneracies(spectra.diagonalize(op, 1.05 * window), near,
                                                   matrix=op.matrix)

    return _tracked_crossings(solve, n_t, window, near, _parameter_rate(sym, 1))[0]


# ---------------------------------------------------------------------------
# weak invariants and the bulk-edge pair

def weak_invariants(sym, grid=20):
    """Chern numbers of the three coordinate sub-tori of a dim-3 symbol.

    Order: (axis0, axis1), (axis0, axis2), (axis1, axis2), with the third
    angle fixed at 0 (any fixed value is homotopic while the gap stays
    open).  Each entry is a plain first Chern number of the Fermi
    projection on that two-torus.
    """
    if sym.dim != 3:
        raise ModelError(f"weak invariants need a dim-3 symbol, got dim {sym.dim}")
    return tuple(
        _refined(partial(_c1_field_strength, sym, (a, b)), grid,
                 f"weak invariant on axes ({a},{b})")[0]
        for a, b in ((0, 1), (0, 2), (1, 2))
    )


def _negative_band_count(sym, n=12):
    k, h = _bloch_grid(sym, (0, 1), n)
    return _fermi_rank(np.linalg.eigvalsh(h), k)


def _pair_rank(h1, h2):
    """First component k1 * M2 of the bulk-edge pair, with its refusals."""
    if h1.dim != 2:
        raise ModelError(f"first factor must be dim 2, got dim {h1.dim}")
    if h2.dim != 1:
        raise ModelError(f"second factor must be dim 1, got dim {h2.dim}")
    k1 = _negative_band_count(h1)
    if k1 == 0:
        raise ModelError("h1 has no Bloch band below 0; k1 = 0 leaves the "
                         "first component undefined")
    return k1 * h2.norb


def bulk_edge_pair(h1, h2, grading):
    """The pair (k1 * M2, product of the factor invariants).

    k1 is the number of Bloch bands of h1 below zero (the Fermi
    projection rank) and M2 the orbital count of h2.  A factor h1 with
    no negative band has a trivial Fermi projection and the first
    component loses its meaning, so that case is rejected.
    """
    return (_pair_rank(h1, h2), chern_number(h1) * winding_number(h2, grading))


# ---------------------------------------------------------------------------
# consolidated report

@dataclass
class InvariantReport:
    """Computed integers plus the provenance needed to rerun them."""

    min_edge_gap_alpha: float
    min_edge_gap_beta: float
    chern_2dA: int | None = None
    winding_1dAIII: int | None = None
    kernel_signature: int | None = None
    weak: tuple | None = None
    corner_sf: int | None = None
    bulk_edge_pair: tuple | None = None
    provenance: dict = field(default_factory=dict)

    def to_dict(self):
        """Every field, the tuples ``weak`` and ``bulk_edge_pair`` as lists."""
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def compute_report(sym, pair, *, W=40, edge_grid=(16, 16), L=24, n_t=64, factors=None):
    """Run the full dim-3 pipeline: edge gaps, weak invariants, corner flow.

    Weak invariants use a 20 x 20 grid.  The corner flow is skipped (with
    the reason, and a ``window`` of None, in provenance) when the measured
    edge gaps do not exceed the edge-gap floor 0.1, since the flow is only
    defined for a Fredholm family; a refusal raised inside the flow, which
    scans the edges again at its own depth and grid, propagates.  When
    ``factors`` is given as ``(h1, h2, grading)`` the factor invariants
    and the bulk-edge pair are computed as well.
    ``W``, ``L``, ``n_t`` and ``edge_grid`` are checked before any work.
    """
    W, L = geometry.lattice_size("W", W), geometry.lattice_size("L", L)
    n_t = geometry.lattice_size("n_t", n_t)
    edge_grid = _scan_grid(edge_grid)
    gap_a, gap_b = edge_gap_scan(sym, pair, W, edge_grid)
    provenance = {
        "alpha": str(pair.alpha),
        "beta": str(pair.beta),
        "W": W,
        "edge_grid": list(edge_grid),
        "L": L,
        "t_grid": n_t,
        "weak_grid": _WEAK_GRID,
        "gap_floor": _EDGE_GAP_FLOOR,
        "residuals": {},
    }
    report = InvariantReport(
        min_edge_gap_alpha=gap_a, min_edge_gap_beta=gap_b, provenance=provenance
    )
    report.weak = weak_invariants(sym, _WEAK_GRID)
    provenance["window"] = provenance["corner_skipped"] = None
    if min(gap_a, gap_b) > _EDGE_GAP_FLOOR:
        report.corner_sf, detail = corner_spectral_flow(sym, pair, L, n_t=n_t)
        provenance["window"] = detail.window
    else:
        provenance["corner_skipped"] = (
            f"edge gaps ({gap_a:.4f}, {gap_b:.4f}) below gap floor "
            f"{_EDGE_GAP_FLOOR}; corner family not Fredholm-certified"
        )
    if factors is not None:
        h1, h2, grading = factors
        c, c_res, c_grid = _chern_detail(h1, 40)
        w, w_res, w_grid = _winding_detail(h2, grading, 256)
        report.chern_2dA = -c
        report.winding_1dAIII = -w
        report.kernel_signature, kernel_W = _kernel_detail(h2, grading, 40)
        report.bulk_edge_pair = (_pair_rank(h1, h2), c * w)
        provenance["residuals"]["chern"] = c_res
        provenance["residuals"]["winding"] = w_res
        provenance["chern_grid"] = c_grid
        provenance["winding_grid"] = w_grid
        provenance["kernel_W"] = kernel_W
    return report
