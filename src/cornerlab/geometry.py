"""Half-plane, wedge, and edge-strip geometry on the square lattice.

A boundary line through the origin with slope ``s`` splits Z^2 into the
half-planes

    alpha side:  -p m + q n >= 0        (sites on or above  n = s m)
    beta side:   -p m + q n <= 0        (sites on or below)

for s = p/q in lowest terms.  Infinite slopes follow a fixed convention:
``beta = +inf`` means m >= 0 and ``alpha = -inf`` means m <= 0, so the
pair (0, +inf) carves out the upper-right quadrant.  A wedge is the
intersection of an alpha side and a beta side with alpha < beta.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import GeometryError

ALPHA = "alpha"
BETA = "beta"


@dataclass(frozen=True)
class Slope:
    """Rational slope p/q in lowest terms (q >= 1), or +-inf as (+-1, 0)."""

    p: int
    q: int

    def __post_init__(self):
        p, q = self.p, self.q
        if not (isinstance(p, (int, np.integer)) and isinstance(q, (int, np.integer))
                and (q >= 1 and math.gcd(p, q) == 1 or q == 0 and abs(p) == 1)):
            raise GeometryError(
                f"slope ({p}, {q}) is neither p/q in lowest terms with q >= 1 nor (+-1, 0)")

    @staticmethod
    def rational(p, q):
        if q == 0:
            raise GeometryError("slope denominator must be nonzero; use inf slopes instead")
        frac = Fraction(p, q)
        return Slope(frac.numerator, frac.denominator)

    @staticmethod
    def plus_inf():
        return Slope(1, 0)

    @staticmethod
    def minus_inf():
        return Slope(-1, 0)

    @staticmethod
    def parse(text):
        """Parse '0', '1/2', '-3/4', 'inf', '-inf' (and '+inf')."""
        s = str(text).strip().lower()
        if s in ("inf", "+inf"):
            return Slope.plus_inf()
        if s == "-inf":
            return Slope.minus_inf()
        try:
            frac = Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise GeometryError(f"cannot parse slope {text!r}") from exc
        return Slope(frac.numerator, frac.denominator)

    @property
    def infinite(self):
        return self.q == 0

    @property
    def value(self):
        """Extended-real value used for ordering slopes."""
        if self.infinite:
            return self.p * math.inf
        return Fraction(self.p, self.q)

    def __str__(self):
        if self.infinite:
            return "inf" if self.p > 0 else "-inf"
        return str(Fraction(self.p, self.q))


@dataclass(frozen=True)
class SlopePair:
    """Ordered pair alpha < beta bounding a wedge; at most one infinite."""

    alpha: Slope
    beta: Slope

    def __post_init__(self):
        if self.alpha.infinite and self.beta.infinite:
            raise GeometryError("alpha and beta cannot both be infinite")
        if not self.alpha.value < self.beta.value:
            raise GeometryError(
                f"slopes must satisfy alpha < beta, got {self.alpha} and {self.beta}"
            )

    def __str__(self):
        return f"({self.alpha}, {self.beta})"


def _check_side(slope, which):
    if which not in (ALPHA, BETA):
        raise GeometryError(f"which must be 'alpha' or 'beta', got {which!r}")
    if slope.infinite and slope.p > 0 and which == ALPHA:
        raise GeometryError("+inf is only valid as a beta slope")
    if slope.infinite and slope.p < 0 and which == BETA:
        raise GeometryError("-inf is only valid as an alpha slope")


def in_half_plane(slope, which, site):
    """Membership of one site, or of each site of an (..., 2) array, in a half-plane."""
    return strip_depth(slope, which, site) >= 0


def strip_depth(slope, which, site):
    """Integer distance-index of a site from the boundary line.

    Depth 0 is the boundary layer; positive depths go into the
    half-plane, negative depths lie outside it.  For rational slopes the
    depth counts lattice steps perpendicular to the edge direction within
    the site's own column.  One ``(m, n)`` site gives an int, an
    ``(..., 2)`` integer array an array; ``ceil(p m / q) = -((-p m) // q)``
    keeps the arithmetic exact.
    """
    _check_side(slope, which)
    sites = np.asarray(site, dtype=np.int64)
    m, n = sites[..., 0], sites[..., 1]
    if slope.infinite:
        depth = m if slope.p > 0 else -m
    elif which == ALPHA:
        depth = n + (-slope.p * m) // slope.q
    else:
        depth = (slope.p * m) // slope.q - n
    return depth if sites.ndim > 1 else int(depth)


def edge_supercell(slope):
    """Primitive lattice vector along the boundary line.

    Rational p/q gives (q, p); infinite slopes give (0, 1), the edge
    running along the n axis.
    """
    if slope.infinite:
        return (0, 1)
    return (slope.q, slope.p)


class LatticeRegion:
    """Finite ordered set of sites with ``norb`` orbitals per site.

    Sites are stored in lexicographic (m, n) order and flat indices are
    site-major: index = site_position * norb + orbital.
    """

    def __init__(self, sites, norb):
        if not isinstance(norb, int) or norb < 1:
            raise GeometryError(f"norb must be a positive integer, got {norb!r}")
        coords = np.asarray(sites, dtype=np.int64)
        if not coords.size:
            raise GeometryError("region is empty")
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise GeometryError(f"sites must be (m, n) pairs, got shape {coords.shape}")
        coords = coords[np.lexsort((coords[:, 1], coords[:, 0]))]
        if np.any(np.all(coords[1:] == coords[:-1], axis=1)):
            raise GeometryError("region has duplicate sites")
        self.sites = tuple(map(tuple, coords.tolist()))
        self.norb = norb
        self._n_min = int(coords[:, 1].min())
        self._span = int(coords[:, 1].max()) - self._n_min + 1
        self._keys = coords[:, 0] * self._span + (coords[:, 1] - self._n_min)

    @property
    def n_sites(self):
        return len(self.sites)

    @property
    def dof(self):
        return len(self.sites) * self.norb

    def __contains__(self, site):
        return self.site_position(site) is not None

    def site_position(self, site):
        """Position of a site in the ordering, or None if absent.

        An ``(..., 2)`` array of sites gives an array with -1 where absent.
        The lookup is a binary search on the key ``m * span + (n - n_min)``,
        which increases with the lexicographic order.
        """
        sites = np.asarray(site, dtype=np.int64)
        col = sites[..., 1] - self._n_min
        keys = sites[..., 0] * self._span + col
        pos = np.minimum(np.searchsorted(self._keys, keys), self._keys.size - 1)
        found = (self._keys[pos] == keys) & (col >= 0) & (col < self._span)
        pos = np.where(found, pos, -1)
        if sites.ndim > 1:
            return pos
        return int(pos) if found else None

    def index(self, site, orb):
        pos = self.site_position(site)
        if pos is None:
            raise GeometryError(f"site {site} not in region")
        if not 0 <= orb < self.norb:
            raise GeometryError(f"orbital {orb} out of range [0, {self.norb})")
        return pos * self.norb + orb

    def unindex(self, i):
        if not 0 <= i < self.dof:
            raise GeometryError(f"flat index {i} out of range [0, {self.dof})")
        return self.sites[i // self.norb], i % self.norb

    def __repr__(self):
        return f"LatticeRegion(n_sites={self.n_sites}, norb={self.norb})"


def lattice_size(name, value):
    """``value`` as an int: a Python or numpy integer of at least 1, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise GeometryError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def _box(ms, ns):
    """All sites (m, n) with m in ``ms`` and n in ``ns``, in lexicographic order."""
    return np.stack(np.meshgrid(ms, ns, indexing="ij"), axis=-1).reshape(-1, 2)


def wedge_region(pair, L, norb):
    """Corner region: the wedge of ``pair`` cut to the max-norm ball of radius L."""
    L = lattice_size("L", L)
    box = _box(np.arange(-L, L + 1), np.arange(-L, L + 1))
    inside = in_half_plane(pair.alpha, ALPHA, box) & in_half_plane(pair.beta, BETA, box)
    return LatticeRegion(box[inside], norb)


def strip_region(slope, which, W, norb):
    """One edge supercell, W layers deep into the half-plane.

    Returns
    -------
    region : LatticeRegion
        ``W * q`` sites for a rational slope p/q (W sites for infinite
        slopes), one supercell wide along the edge direction.
    depths : ndarray of int
        Each site's transverse depth in region order, 0 on the boundary
        layer.

    Translating the returned sites by integer multiples of
    :func:`edge_supercell` tiles the full W-layer strip exactly.
    """
    _check_side(slope, which)
    W = lattice_size("W", W)
    if slope.infinite:
        box = _box(np.arange(1 - W, W), [0])
    else:
        # 0 <= m < q keeps the boundary row within |p| of n = 0.
        reach = abs(slope.p) + W
        box = _box(np.arange(slope.q), np.arange(-reach, reach + 1))
    depth = strip_depth(slope, which, box)
    inside = (depth >= 0) & (depth < W)
    # The box is in lexicographic order, so region order keeps depth[inside].
    return LatticeRegion(box[inside], norb), depth[inside]


def reduce_to_supercell(slope, site):
    """Decompose ``site = rep + j * v`` with v the edge supercell vector.

    Returns ``(rep, j)`` where ``rep`` lies in the supercell window
    (column 0 <= m < q for rational slopes, row n = 0 for infinite ones).
    An ``(..., 2)`` array of sites gives arrays ``rep`` and ``j``.
    """
    sites = np.asarray(site, dtype=np.int64)
    j = sites[..., 1] if slope.infinite else sites[..., 0] // slope.q
    rep = sites - j[..., None] * np.array(edge_supercell(slope))
    if sites.ndim > 1:
        return rep, j
    return tuple(rep.tolist()), int(j)
