"""Slopes, half-planes, wedges, strips, and flat indexing."""

import math

import numpy as np
import pytest

from cornerlab import GeometryError, geometry
from cornerlab.geometry import (
    LatticeRegion,
    Slope,
    SlopePair,
    edge_supercell,
    in_half_plane,
    reduce_to_supercell,
    strip_depth,
    strip_region,
    wedge_region,
)


def test_slope_parse():
    assert Slope.parse("0") == Slope.rational(0, 1)
    assert Slope.parse("1/2") == Slope.rational(1, 2)
    assert Slope.parse("-3/4") == Slope.rational(3, -4)
    assert Slope.parse("2/4") == Slope.rational(1, 2)
    assert Slope.parse("inf") == Slope.plus_inf()
    assert Slope.parse("+inf") == Slope.plus_inf()
    assert Slope.parse("-inf") == Slope.minus_inf()
    for bad in ("", "one", "1/0", "inf/2"):
        with pytest.raises(GeometryError):
            Slope.parse(bad)
    with pytest.raises(GeometryError):
        Slope.rational(1, 0)
    assert str(Slope.rational(2, -4)) == "-1/2"


def test_slope_holds_only_lowest_terms_or_unit_infinities():
    """``(p, q)`` is p/q in lowest terms with q >= 1, or (+-1, 0) for +-inf.
    (0, 0) and (3, 0) would divide by zero in ``value``, (2, 4) would build a
    non-primitive strip, and (1, -2) a misleading empty region."""
    assert Slope(1, 0) == Slope.plus_inf() and str(Slope(1, 0)) == "inf"
    assert Slope(-1, 0) == Slope.minus_inf() and Slope(-1, 0).value == -math.inf
    assert SlopePair(Slope(0, 1), Slope(1, 0)) == SlopePair(Slope.rational(0, 1),
                                                            Slope.plus_inf())
    for p, q in ((0, 0), (3, 0), (2, 4), (1, -2), (0, 2), (1.0, 2)):
        with pytest.raises(GeometryError, match="lowest terms"):
            Slope(p, q)
    with pytest.raises(TypeError):
        Slope(3, 0, "+inf")


def test_slope_pair_ordering():
    SlopePair(Slope.rational(0, 1), Slope.plus_inf())
    SlopePair(Slope.minus_inf(), Slope.rational(1, 2))
    with pytest.raises(GeometryError):
        SlopePair(Slope.rational(1, 1), Slope.rational(0, 1))
    with pytest.raises(GeometryError):
        SlopePair(Slope.minus_inf(), Slope.plus_inf())
    with pytest.raises(GeometryError):
        SlopePair(Slope.plus_inf(), Slope.rational(0, 1))


def test_half_plane_membership():
    half = Slope.rational(1, 2)
    # alpha side of n = m/2 holds the sites with n >= ceil(m/2)
    assert in_half_plane(half, "alpha", (2, 1))
    assert not in_half_plane(half, "alpha", (2, 0))
    assert in_half_plane(half, "beta", (2, 1))
    assert not in_half_plane(half, "beta", (2, 2))
    assert in_half_plane(half, "alpha", (3, 2))
    assert not in_half_plane(half, "alpha", (3, 1))
    # infinite slopes split on the m axis
    assert in_half_plane(Slope.plus_inf(), "beta", (0, -5))
    assert not in_half_plane(Slope.plus_inf(), "beta", (-1, 3))
    assert in_half_plane(Slope.minus_inf(), "alpha", (-2, 7))
    with pytest.raises(GeometryError):
        in_half_plane(Slope.plus_inf(), "alpha", (0, 0))
    with pytest.raises(GeometryError):
        in_half_plane(half, "gamma", (0, 0))


def test_strip_depth_counts_layers():
    half = Slope.rational(1, 2)
    for m in range(-6, 7):
        base = math.ceil(m / 2)
        for d in range(4):
            assert strip_depth(half, "alpha", (m, base + d)) == d
        assert strip_depth(half, "alpha", (m, base - 1)) == -1
    assert strip_depth(Slope.plus_inf(), "beta", (3, 9)) == 3


def test_quadrant_wedge_site_count():
    pair = SlopePair(Slope.rational(0, 1), Slope.plus_inf())
    for L in (3, 8):
        region = wedge_region(pair, L, 1)
        assert region.n_sites == (L + 1) ** 2
        assert all(m >= 0 and n >= 0 for m, n in region.sites)
    with pytest.raises(GeometryError):
        wedge_region(pair, 0, 1)


def test_tilted_wedge_members():
    pair = SlopePair(Slope.rational(1, 2), Slope.plus_inf())
    region = wedge_region(pair, 4, 1)
    for m, n in region.sites:
        assert m >= 0 and n >= math.ceil(m / 2)
    assert (2, 1) in region
    assert (2, 0) not in region
    assert (-1, 0) not in region


def test_region_indexing_roundtrip():
    region = wedge_region(SlopePair(Slope.rational(0, 1), Slope.plus_inf()), 5, 3)
    assert region.dof == region.n_sites * 3
    for i in range(region.dof):
        site, orb = region.unindex(i)
        assert region.index(site, orb) == i
    with pytest.raises(GeometryError):
        region.index((999, 0), 0)
    with pytest.raises(GeometryError):
        region.index(region.sites[0], 3)
    with pytest.raises(GeometryError):
        region.unindex(region.dof)


def test_region_validation():
    with pytest.raises(GeometryError):
        LatticeRegion([], 1)
    with pytest.raises(GeometryError):
        LatticeRegion([(0, 0), (0, 0)], 1)
    with pytest.raises(GeometryError):
        LatticeRegion([(0, 0)], 0)
    with pytest.raises(GeometryError, match=r"^sites must be \(m, n\) pairs"):
        LatticeRegion([[0, 0, 0]], 1)


def test_minus_inf_is_only_an_alpha_slope():
    with pytest.raises(GeometryError, match="^-inf is only valid as an alpha slope$"):
        strip_depth(Slope.minus_inf(), "beta", (0, 0))


@pytest.mark.parametrize("pair", [
    SlopePair(Slope.rational(0, 1), Slope.rational(1, 1000)),
    SlopePair(Slope.rational(999, 1000), Slope.rational(1, 1)),
    SlopePair(Slope.minus_inf(), Slope.rational(-1000, 1)),
])
def test_narrow_wedge_contains_its_vertex(pair):
    """The vertex has depth 0 on both sides, so no wedge is ever empty."""
    assert (0, 0) in wedge_region(pair, 1, 1).sites


def test_strip_region_counts_and_depths():
    for slope, sites_per_cell in ((Slope.rational(1, 2), 2),
                                  (Slope.rational(0, 1), 1),
                                  (Slope.plus_inf(), 1)):
        which = "beta" if slope.infinite else "alpha"
        region, depths = strip_region(slope, which, 6, 2)
        assert region.n_sites == 6 * sites_per_cell
        assert sorted(set(depths.tolist())) == list(range(6))
    with pytest.raises(GeometryError):
        strip_region(Slope.rational(0, 1), "alpha", 0, 1)


def test_supercell_tiling_covers_strip():
    """Translates of the supercell sites tile the W-layer strip exactly."""
    slope = Slope.rational(1, 2)
    W = 3
    region, _ = strip_region(slope, "alpha", W, 1)
    v = edge_supercell(slope)
    assert v == (2, 1)
    tiled = {(m + j * v[0], n + j * v[1])
             for (m, n) in region.sites for j in range(-7, 8)}
    strip = {(m, n) for m in range(-14, 15) for n in range(-20, 21)
             if 0 <= strip_depth(slope, "alpha", (m, n)) < W}
    window = {s for s in strip if -6 <= s[0] <= 6}
    assert window <= tiled
    assert len(tiled) == len(region.sites) * 15


def test_reduce_to_supercell():
    slope = Slope.rational(1, 2)
    rng = np.random.default_rng(2)
    for _ in range(40):
        m, n = rng.integers(-30, 30, size=2)
        rep, j = reduce_to_supercell(slope, (m, n))
        assert 0 <= rep[0] < 2
        assert (rep[0] + 2 * j, rep[1] + j) == (m, n)
    rep, j = reduce_to_supercell(Slope.plus_inf(), (4, -9))
    assert rep == (4, 0) and j == -9
