"""Real-space assembly: bulk fibers, half-lines, edge strips, corners."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from cornerlab import GeometryError, ModelError, assembly, geometry, symbol
from cornerlab.assembly import (
    assemble_corner,
    assemble_edge_strip,
    assemble_halfline,
    strip_family,
)
from cornerlab.geometry import Slope, SlopePair
from cornerlab.symbol import builtin_models, chiral_shift_model, partial_bloch, qwz_model

from oracles import oracle_strip_matrix

PAIR = SlopePair(Slope.rational(0, 1), Slope.plus_inf())


def test_every_assembler_yields_hermitian_matrices():
    cat = builtin_models()
    rng = np.random.default_rng(17)
    ops = []
    for t in rng.uniform(0, 2 * np.pi, size=3):
        ops.append(assemble_corner(cat["product_example"].symbol, PAIR, 8, t))
        ops.append(assemble_edge_strip(
            cat["product_example"].symbol, Slope.rational(1, 2), "alpha", 9,
            k_edge=t, t=t))
        ops.append(assemble_edge_strip(
            cat["h1_example"].symbol, Slope.plus_inf(), "beta", 9, k_edge=t))
    ops.append(assemble_halfline(cat["h2_double_shift"].symbol, 12))
    for op in ops:
        dense = op.dense()
        assert np.max(np.abs(dense - dense.conj().T)) <= 1e-12


def test_halfline_nesting():
    """The W-site half-line is the top-left block of the 2W-site one."""
    sym, _ = chiral_shift_model(2)
    small = assemble_halfline(sym, 10).dense()
    big = assemble_halfline(sym, 20).dense()
    assert np.array_equal(small, big[: small.shape[0], : small.shape[1]])


def test_halfline_entries_match_hoppings():
    sym, _ = chiral_shift_model(1)
    op = assemble_halfline(sym, 8)
    dense = op.dense()
    for a in range(8):
        for b in range(8):
            blk = dense[2 * a: 2 * a + 2, 2 * b: 2 * b + 2]
            assert np.array_equal(blk, sym.block((a - b,)))


def test_halfline_validation():
    sym, _ = chiral_shift_model(2)
    with pytest.raises(GeometryError):
        assemble_halfline(sym, 2)
    with pytest.raises(ModelError):
        assemble_halfline(qwz_model(-1.0), 10)


def test_corner_entries_are_folded_hoppings():
    """Corner matrix entry (a, b) is sum_l h_{(a-b, l)} exp(-i l t)."""
    sym = builtin_models()["product_example"].symbol
    t = 0.9
    op = assemble_corner(sym, PAIR, 6, t)
    dense = op.dense()
    region = op.region
    folded = {}
    for (dm, dn, dl), blk in sym.hoppings.items():
        key = (dm, dn)
        folded[key] = folded.get(key, 0) + blk * np.exp(-1j * dl * t)
    rng = np.random.default_rng(29)
    sites = list(region.sites)
    for _ in range(60):
        a = sites[rng.integers(len(sites))]
        b = sites[rng.integers(len(sites))]
        ia, ib = region.index(a, 0), region.index(b, 0)
        got = dense[ia: ia + 4, ib: ib + 4]
        want = folded.get((a[0] - b[0], a[1] - b[1]), np.zeros((4, 4)))
        assert np.allclose(got, want, atol=1e-14)


def test_corner_validation():
    sym = builtin_models()["product_example"].symbol
    with pytest.raises(GeometryError):
        assemble_corner(sym, PAIR, 0, 0.0)
    with pytest.raises(ModelError):
        assemble_corner(qwz_model(-1.0), PAIR, 8, 0.0)


def test_corner_family_stores_no_entry_that_is_zero_for_every_l():
    """The pattern holds the diagonal and the entries nonzero for some l, no more."""
    for name in ("product_example", "onsite_gapped"):
        family = assembly.corner_family(builtin_models()[name].symbol, PAIR, 6)
        n = family.region.dof
        cols = family.entries // n
        off_diagonal = family.entries % n != cols
        assert np.count_nonzero(~off_diagonal) == n
        assert np.all(np.any(family.coeffs[:, off_diagonal] != 0, axis=0))
        # Every dropped entry is zero in the dense matrix at any t.
        dense = family.operator(t=0.37).dense()
        stored = np.zeros((n, n), dtype=bool)
        stored[family.entries % n, cols] = True
        assert not np.any(dense[~stored])


def test_edge_strip_slope0_equals_folded_halfline():
    """Slope-0 alpha strip of a dim-2 symbol is the Bloch-folded half-line."""
    sym = qwz_model(-1.0)
    for k in (0.0, 0.6, -2.2):
        strip = assemble_edge_strip(sym, Slope.rational(0, 1), "alpha", 14, k)
        hl = assemble_halfline(partial_bloch(sym, 0, k), 14)
        assert np.allclose(strip.dense(), hl.dense(), atol=1e-13)


def test_edge_strip_parameter_fold_orientation():
    """Dim-3 strips fold the parameter axis like the corner does."""
    sym = builtin_models()["product_example"].symbol
    t, k = 1.3, 0.4
    strip3 = assemble_edge_strip(sym, Slope.rational(1, 2), "beta", 10, k, t=t)
    folded = symbol.partial_bloch(sym, 2, -t)
    strip2 = assemble_edge_strip(folded, Slope.rational(1, 2), "beta", 10, k)
    assert np.allclose(strip3.dense(), strip2.dense(), atol=1e-13)


def _random_range2_symbol(seed):
    """A dim-2, two-orbital symbol with random blocks at every offset of range <= 2."""
    rng = np.random.default_rng(seed)
    hoppings = {}
    for off in itertools.product(range(-2, 3), repeat=2):
        if off not in hoppings:
            blk = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            hoppings[off] = blk + blk.conj().T if off == (0, 0) else blk
            hoppings[(-off[0], -off[1])] = hoppings[off].conj().T
    return symbol.HamiltonianSymbol(2, 2, hoppings)


@pytest.mark.parametrize("sym", [builtin_models()["h1_example"].symbol,
                                 _random_range2_symbol(5)], ids=["h1_example", "random_range2"])
def test_inf_strip_at_minus_t_is_the_folded_halfline(sym):
    """The edge flow's slice at t, the slope-inf beta strip at k_edge = -t,
    is the half-line of the symbol folded along its second axis at -t."""
    family = strip_family(sym, Slope.plus_inf(), "beta", 9)
    for t in (0.3, 1.7, 3.9, 5.6):
        got = family.operator(-t, t)
        want = assemble_halfline(partial_bloch(sym, 1, -t), 9)
        assert np.max(np.abs(got.dense() - want.dense())) <= 1e-14
        assert got.t == t


def test_edge_strip_bloch_phase_wraps_supercell():
    """Hops crossing the supercell boundary carry exp(i k_edge j)."""
    sym = qwz_model(-1.0)
    k = 0.8
    op = assemble_edge_strip(sym, Slope.plus_inf(), "beta", 6, k)
    dense = op.dense()
    region = op.region
    # along-edge hop (0, 1) wraps onto the same site with phase exp(i k)
    a = region.index((2, 0), 0)
    got = dense[a: a + 2, a: a + 2]
    want = (sym.block((0, 0))
            + sym.block((0, 1)) * np.exp(1j * k)
            + sym.block((0, -1)) * np.exp(-1j * k))
    assert np.allclose(got, want, atol=1e-14)


def test_edge_strip_validation():
    sym = builtin_models()["product_example"].symbol
    with pytest.raises(ModelError):
        assemble_edge_strip(sym, Slope.rational(0, 1), "alpha", 10, 0.0)
    with pytest.raises(GeometryError):
        assemble_edge_strip(sym, Slope.rational(0, 1), "alpha", 1, 0.0, t=0.0)
    with pytest.raises(ModelError):
        assemble_edge_strip(chiral_shift_model()[0], Slope.rational(0, 1),
                            "alpha", 10, 0.0)


STRIP_SIDES = (("0", "alpha"), ("0", "beta"), ("1/2", "alpha"), ("1/2", "beta"),
               ("-3/2", "alpha"), ("-3/2", "beta"), ("inf", "beta"), ("-inf", "alpha"))


def _depth_order(sites, exact, which):
    """Stable order of lexicographic ``sites`` by layer depth from the boundary."""
    def depth(site):
        m, n = site
        if abs(exact) == math.inf:
            return abs(m)
        return n - math.ceil(exact * m) if which == "alpha" else math.floor(exact * m) - n
    return sorted(range(len(sites)), key=lambda i: depth(sites[i]))


def _lower_band(h, bandwidth):
    """LAPACK lower band storage ``band[d, c] = h[c + d, c]`` of a dense matrix."""
    band = np.zeros((bandwidth + 1, h.shape[0]), dtype=complex)
    for d in range(bandwidth + 1):
        band[d, :h.shape[0] - d] = np.diagonal(h, -d)
    return band


@pytest.mark.parametrize("name", ["product_example", "h1_example"])
def test_strip_family_matches_site_pair_oracle(name):
    """Every (k_edge, t) of a family equals the dense site-pair oracle, both
    as an operator in lexicographic site order and as lower band storage in
    depth order, and assembling one strip gives the family's operator."""
    sym = builtin_models()[name].symbol
    ks = (0.0, 1.1, 4.4)
    ts = (0.0, 2.3, 5.9) if sym.dim == 3 else (None,)
    for text, which in STRIP_SIDES:
        slope = Slope.parse(text)
        exact = float(text) if "inf" in text else Fraction(text)
        family = strip_family(sym, slope, which, 5)
        for k_edge in ks:
            for t in ts:
                sites, want = oracle_strip_matrix(sym, exact, which, 5, k_edge, t)
                assert list(family.region.sites) == sites
                got = family.operator(k_edge, t)
                assert np.max(np.abs(got.dense() - want)) <= 1e-14
                dof = (np.array(_depth_order(sites, exact, which))[:, None] * sym.norb
                       + np.arange(sym.norb)).ravel()
                in_depth_order = want[np.ix_(dof, dof)]
                assert not np.any(np.tril(in_depth_order, -family.bandwidth - 1))
                want_band = _lower_band(in_depth_order, family.bandwidth)
                assert np.max(np.abs(family.banded(k_edge, t) - want_band)) <= 1e-14
                op = assemble_edge_strip(sym, slope, which, 5, k_edge, t=t)
                assert np.array_equal(op.dense(), got.dense())
                assert op.t == t


@pytest.mark.parametrize("name", ["product_example", "h1_example"])
@pytest.mark.parametrize("text, which", [("inf", "beta"), ("0", "alpha")])
def test_banded_pairs_k_edge_arrays_with_t(name, text, which):
    """Arrays ``k_edge`` and ``t`` of one length give the band of each pair,
    bit for bit; a scalar ``k_edge`` with an array ``t``, as the edge-gap scan
    reads a row, gives exactly sum_T exp(i (j k_edge - l t)) coeffs[T] placed
    at ``band_index``."""
    sym = builtin_models()[name].symbol
    family = strip_family(sym, Slope.parse(text), which, 6)
    ts = np.array([0.0, 0.7, 2.3, 5.9])
    bands = family.banded(-ts, ts)
    assert bands.shape == (ts.size, family.bandwidth + 1, family.region.dof)
    for i, t in enumerate(ts):
        assert np.array_equal(bands[i], family.banded(-t, t))
    if sym.dim == 3:
        j, l = family.terms.T
        vals = np.exp(1j * (j * 1.1 - np.multiply.outer(ts, l))) @ family.coeffs
        want = np.zeros_like(bands)
        want.reshape(ts.size, -1)[:, family.band_index] = vals[:, family.lower]
        assert np.array_equal(family.banded(1.1, ts), want)


@pytest.mark.parametrize("text, which", [
    ("0", "alpha"), ("0", "beta"), ("1/2", "alpha"), ("1/2", "beta"), ("-3/2", "alpha"),
    ("-3/2", "beta"), ("2/5", "alpha"), ("2/5", "beta"), ("inf", "beta"), ("-inf", "alpha")])
def test_strip_bandwidth_does_not_grow_with_depth(text, which):
    """In depth order a hop spans at most range + 1 layers of q sites, so the
    band of a strip is the same at W=10 and W=40 and stays well below n."""
    sym = builtin_models()["product_example"].symbol
    slope = Slope.parse(text)
    shallow, deep = (strip_family(sym, slope, which, W) for W in (10, 40))
    q = 1 if slope.infinite else slope.q
    assert shallow.bandwidth == deep.bandwidth < 2 * (q + 1) * sym.norb
    assert deep.bandwidth < deep.region.dof // 4


def test_strip_family_checks_every_point_for_hermiticity():
    """A coefficient that breaks the mirror symmetry is refused at every point."""
    sym = builtin_models()["product_example"].symbol
    family = strip_family(sym, Slope.rational(1, 2), "alpha", 6)
    off_diagonal = np.nonzero(family.transpose != np.arange(family.entries.size))[0][0]
    family.coeffs[:, off_diagonal] += 1e-9
    for k_edge, t in ((0.0, 0.0), (0.7, 2.1)):
        with pytest.raises(ModelError, match="not Hermitian"):
            family.banded(k_edge, t)
        with pytest.raises(ModelError, match="not Hermitian"):
            family.operator(k_edge, t)
    with pytest.raises(ModelError, match="parameter value t"):
        family.banded(0.0)
