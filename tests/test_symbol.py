"""Symbol layer: validation, Bloch evaluation, products, model files."""

import json

import numpy as np
import pytest

from cornerlab import ModelError, symbol
from cornerlab.symbol import (
    ChiralGrading,
    HamiltonianSymbol,
    builtin_models,
    check_chiral,
    chiral_shift_model,
    direct_sum,
    evaluate_bloch,
    extend_trivially,
    load_model,
    partial_bloch,
    perturb_onsite,
    product_hamiltonian,
    qwz_model,
    s0,
    save_model,
    sx,
    sy,
    sz,
)


def test_missing_hermitian_partner_rejected():
    with pytest.raises(ModelError, match="partner"):
        HamiltonianSymbol(1, 2, {(1,): sx})


def test_mismatched_hermitian_partner_rejected():
    with pytest.raises(ModelError, match="partner"):
        HamiltonianSymbol(1, 2, {(1,): sx, (-1,): sy})


def test_onsite_block_must_be_hermitian():
    with pytest.raises(ModelError):
        HamiltonianSymbol(1, 1, {(0,): np.array([[1j]])})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_non_finite_entries_rejected(bad):
    """NaN fails every comparison, the partner and involution checks included,
    so a non-finite entry is refused explicitly: on-site, in a hopping pair,
    or in a grading (where it would make kernel_signature return 0)."""
    with pytest.raises(ModelError, match="non-finite"):
        HamiltonianSymbol(1, 1, {(0,): np.array([[bad]])})
    hop = np.array([[0.5, bad], [0.0, 0.5]], dtype=complex)
    with pytest.raises(ModelError, match="non-finite"):
        HamiltonianSymbol(1, 2, {(1,): hop, (-1,): hop.conj().T})
    with pytest.raises(ModelError, match="non-finite"):
        ChiralGrading(np.diag([bad, -1.0]))


def test_zero_blocks_dropped():
    sym = HamiltonianSymbol(2, 2, {(0, 0): sz, (1, 0): 0 * sx, (-1, 0): 0 * sx})
    assert sym.offsets() == [(0, 0)]
    assert np.array_equal(sym.block((1, 0)), np.zeros((2, 2)))


def test_bad_dim_and_norb():
    with pytest.raises(ModelError):
        HamiltonianSymbol(4, 2, {})
    with pytest.raises(ModelError):
        HamiltonianSymbol(2, 0, {})
    with pytest.raises(ModelError):
        HamiltonianSymbol(2, 2, {(1, 0, 0): sx})
    with pytest.raises(ModelError):
        HamiltonianSymbol(1.0, 2, {(0,): sz})


def test_equality_ignores_insertion_order():
    blocks = {(1, 0): 0.5 * sx, (-1, 0): 0.5 * sx, (0, 0): sz}
    forward = HamiltonianSymbol(2, 2, blocks)
    backward = HamiltonianSymbol(2, 2, dict(reversed(list(blocks.items()))))
    assert forward == backward
    assert qwz_model(-1.0) == qwz_model(-1.0)


def test_equality_refusals():
    sym = HamiltonianSymbol(1, 2, {(0,): sz, (1,): 0.5 * sx, (-1,): 0.5 * sx})
    assert sym != "not a symbol"
    assert sym.__eq__(3) is NotImplemented
    assert sym != HamiltonianSymbol(2, 2, {(0, 0): sz})
    assert sym != HamiltonianSymbol(1, 1, {(0,): [[1.0]]})
    assert sym != HamiltonianSymbol(1, 2, {(0,): sz, (2,): 0.5 * sx, (-2,): 0.5 * sx})
    assert sym != HamiltonianSymbol(1, 2, {(0,): sz, (1,): 0.5 * sz, (-1,): 0.5 * sz})


def test_empty_symbol():
    sym = HamiltonianSymbol(2, 2, {})
    assert sym.hopping_range() == (0, 0)
    assert sym.offsets() == []
    assert np.array_equal(evaluate_bloch(sym, [0.3, -1.2]), np.zeros((2, 2)))
    assert repr(sym) == "HamiltonianSymbol(dim=2, norb=2, n_hoppings=0)"


def test_absent_block_is_zero_and_hoppings_are_read_only():
    sym = qwz_model(-1.0)
    assert np.array_equal(sym.block((3, 0)), np.zeros((2, 2)))
    assert sym.hopping_range() == (1, 1)
    for blk in sym.hoppings.values():
        assert not blk.flags.writeable
        with pytest.raises(ValueError):
            blk[0, 0] = 1.0


def test_block_shape_and_offset_type_refused():
    with pytest.raises(ModelError, match=r"^offset \(0,\): block shape \(3, 3\), expected \(2, 2\)$"):
        HamiltonianSymbol(1, 2, {(0,): np.eye(3)})
    with pytest.raises(ModelError, match=r"^offset \(0\.5,\) has a non-integer component$"):
        HamiltonianSymbol(1, 2, {(0.5,): np.eye(2)})
    with pytest.raises(ModelError, match=r"^offset 0 is not a tuple of integers$"):
        HamiltonianSymbol(1, 1, {0: [[1.0]]})
    with pytest.raises(ModelError, match=r"^offset '0' has a non-integer component$"):
        HamiltonianSymbol(1, 1, {"0": [[1.0]]})


def test_grading_must_be_square():
    with pytest.raises(ModelError, match="^grading must be a square matrix$"):
        ChiralGrading(np.ones((2, 3)))


def test_product_needs_a_dim_1_chiral_factor():
    h1 = qwz_model(-1.0)
    with pytest.raises(ModelError, match="^h2 must have dim 1, got 2$"):
        product_hamiltonian(h1, h1, ChiralGrading(sz))


def test_evaluate_bloch_matches_explicit_sum():
    rng = np.random.default_rng(3)
    sym = qwz_model(-1.0)
    for _ in range(25):
        k = rng.uniform(-np.pi, np.pi, size=2)
        want = sum(blk * np.exp(1j * np.dot(off, k))
                   for off, blk in sym.hoppings.items())
        got = evaluate_bloch(sym, k)
        assert np.allclose(got, want, atol=1e-13)
        assert np.max(np.abs(got - got.conj().T)) <= 1e-13
    grid = rng.uniform(-np.pi, np.pi, size=(5, 3, 2))
    batch = evaluate_bloch(sym, grid)
    assert batch.shape == (5, 3, 2, 2)
    for i, j in np.ndindex(5, 3):
        want = sum(blk * np.exp(1j * np.dot(off, grid[i, j]))
                   for off, blk in sym.hoppings.items())
        assert np.max(np.abs(batch[i, j] - want)) <= 1e-13


def test_evaluate_bloch_shape_check():
    with pytest.raises(ValueError):
        evaluate_bloch(qwz_model(-1.0), [0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        evaluate_bloch(qwz_model(-1.0), np.zeros((4, 3)))


def test_partial_bloch_consistent_with_full_evaluation():
    rng = np.random.default_rng(7)
    prod = builtin_models()["product_example"].symbol
    for _ in range(10):
        k = rng.uniform(-np.pi, np.pi, size=3)
        for axis in range(3):
            folded = partial_bloch(prod, axis, k[axis])
            rest = np.delete(k, axis)
            assert np.allclose(evaluate_bloch(folded, rest),
                               evaluate_bloch(prod, k), atol=1e-12)


def test_partial_bloch_rejects_last_axis_and_bad_axis():
    h2, _ = chiral_shift_model()
    with pytest.raises(ValueError):
        partial_bloch(h2, 0, 0.3)
    with pytest.raises(ValueError):
        partial_bloch(qwz_model(-1.0), 2, 0.3)


def test_product_hamiltonian_square_identity():
    """H(k)^2 = H1(eta,t)^2 (x) 1 + 1 (x) H2(xi)^2 pointwise on the torus."""
    h1 = qwz_model(-1.0)
    h2, g = chiral_shift_model(1)
    prod = product_hamiltonian(h1, h2, g)
    rng = np.random.default_rng(11)
    for _ in range(20):
        xi, eta, t = rng.uniform(-np.pi, np.pi, size=3)
        hk = evaluate_bloch(prod, (xi, eta, t))
        b1 = evaluate_bloch(h1, (eta, t))
        b2 = evaluate_bloch(h2, (xi,))
        want = np.kron(b1 @ b1, np.eye(2)) + np.kron(np.eye(2), b2 @ b2)
        assert np.allclose(hk @ hk, want, atol=1e-12)


def test_product_hamiltonian_axis_placement():
    h1 = qwz_model(-1.0)
    h2, g = chiral_shift_model(1)
    prod = product_hamiltonian(h1, h2, g)
    assert prod.dim == 3 and prod.norb == 4
    assert np.allclose(prod.block((1, 0, 0)), np.kron(np.eye(2), h2.block((1,))))
    assert np.allclose(prod.block((0, 1, 0)), np.kron(h1.block((1, 0)), g.matrix))
    assert np.allclose(prod.block((0, 0, 1)), np.kron(h1.block((0, 1)), g.matrix))


def test_product_hamiltonian_rejects_non_anticommuting_grading():
    h1 = qwz_model(-1.0)
    h2, _ = chiral_shift_model(1)
    with pytest.raises(ModelError):
        product_hamiltonian(h1, h2, ChiralGrading(np.eye(2)))
    with pytest.raises(ModelError):
        product_hamiltonian(h2, h2, ChiralGrading(sz))


def test_check_chiral():
    h2, g = chiral_shift_model(1)
    assert check_chiral(h2, g)
    assert not check_chiral(HamiltonianSymbol(1, 2, {(0,): sz}), g)
    with pytest.raises(ModelError):
        check_chiral(h2, ChiralGrading(np.eye(4)))


def test_grading_validation():
    with pytest.raises(ModelError):
        ChiralGrading(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ModelError):
        ChiralGrading(0.5 * sz)
    vecs, n_plus, n_minus = ChiralGrading(sx).eigenbasis()
    assert (n_plus, n_minus) == (1, 1)
    assert np.allclose(vecs.conj().T @ sx @ vecs, sz, atol=1e-12)


def test_direct_sum_spectrum_is_union():
    a = qwz_model(-1.0)
    b = qwz_model(-3.0)
    s = direct_sum(a, b)
    assert s.norb == 4
    rng = np.random.default_rng(5)
    for _ in range(10):
        k = rng.uniform(-np.pi, np.pi, size=2)
        want = np.sort(np.concatenate([
            np.linalg.eigvalsh(evaluate_bloch(a, k)),
            np.linalg.eigvalsh(evaluate_bloch(b, k)),
        ]))
        got = np.linalg.eigvalsh(evaluate_bloch(s, k))
        assert np.allclose(got, want, atol=1e-12)
    with pytest.raises(ModelError):
        direct_sum(a, chiral_shift_model()[0])


def test_extend_trivially_places_axes():
    h1 = qwz_model(-1.0)
    stacked = extend_trivially(h1)
    assert stacked.dim == 3
    assert all(off[0] == 0 for off in stacked.offsets())
    rng = np.random.default_rng(13)
    for _ in range(8):
        xi, eta, t = rng.uniform(-np.pi, np.pi, size=3)
        assert np.allclose(evaluate_bloch(stacked, (xi, eta, t)),
                           evaluate_bloch(h1, (eta, t)), atol=1e-13)
    with pytest.raises(ModelError):
        extend_trivially(chiral_shift_model()[0])


def test_perturb_onsite_norm_and_reproducibility():
    sym = builtin_models()["product_example"].symbol
    for seed in range(4):
        pert = perturb_onsite(sym, 0.1, seed)
        delta = pert.block((0, 0, 0)) - sym.block((0, 0, 0))
        assert abs(np.linalg.norm(delta, 2) - 0.1) < 1e-12
        assert np.max(np.abs(delta - delta.conj().T)) < 1e-14
        again = perturb_onsite(sym, 0.1, seed)
        assert pert == again
    assert perturb_onsite(sym, 0.1, 0) != perturb_onsite(sym, 0.1, 1)


def test_save_load_roundtrip(tmp_path):
    h2, g = chiral_shift_model(2)
    path = tmp_path / "model.json"
    save_model(h2, path, grading=g)
    sym, grading = load_model(path)
    assert sym == h2
    assert np.array_equal(grading.matrix, g.matrix)

    prod = builtin_models()["product_example"].symbol
    path2 = tmp_path / "prod.json"
    save_model(prod, path2)
    sym2, grading2 = load_model(path2)
    assert sym2 == prod and grading2 is None


def test_load_model_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ModelError):
        load_model(bad)
    bad.write_text('{"dim": 2}')
    with pytest.raises(ModelError):
        load_model(bad)
    block = [[[1.0, 0.0]]]
    for doc in (
        {"dim": 1, "norb": 1, "hoppings": [{"block": block}]},
        {"dim": "abc", "norb": 1, "hoppings": []},
        {"dim": 1, "norb": 1, "hoppings": [{"offset": ["x"], "block": block}]},
        {"dim": 1, "norb": 2, "hoppings": [
            {"offset": [0], "block": [[[1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}]},
        {"dim": 1, "norb": 1, "hoppings": [[0]]},
        {"dim": 1, "norb": 1, "hoppings": 5},
        {"dim": 1.9, "norb": 1, "hoppings": [{"offset": [0], "block": block}]},
        {"dim": 1, "norb": 1, "hoppings": [{"offset": [0.7], "block": block}]},
        {"dim": 2, "norb": 1, "hoppings": [{"offset": "10", "block": block}]},
        {"dim": 1, "norb": 1.0, "hoppings": [{"offset": [0], "block": block}]},
        {"dim": 1, "norb": True, "hoppings": [{"offset": [0], "block": block}]},
    ):
        bad.write_text(json.dumps(doc))
        with pytest.raises(ModelError):
            load_model(bad)


def test_load_model_refuses_unpaired_block_and_repeated_offset(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 1, "norb": 2, "hoppings": [
        {"offset": [0], "block": [[1.0, 0.0], [0.0, 1.0]]}]}))
    with pytest.raises(ModelError, match=r"expected shape \(2, 2, 2\), got \(2, 2\)$"):
        load_model(bad)
    block = [[[1.0, 0.0]]]
    bad.write_text(json.dumps({"dim": 1, "norb": 1, "hoppings": [
        {"offset": [0], "block": block}, {"offset": [0], "block": block}]}))
    with pytest.raises(ModelError, match=r"duplicate offset \(0,\)$"):
        load_model(bad)


def test_builtin_catalog():
    cat = builtin_models()
    assert set(cat) == {
        "h1_example", "h1_trivial", "h2_example", "h2_double_shift",
        "product_example", "onsite_gapped", "onsite_gapped_2d", "h1_stacked",
    }
    for name, entry in cat.items():
        assert entry.description
        if entry.grading is not None:
            assert check_chiral(entry.symbol, entry.grading)
    assert cat["product_example"].symbol == product_hamiltonian(
        cat["h1_example"].symbol, cat["h2_example"].symbol,
        cat["h2_example"].grading)


def test_pauli_constants():
    for p in (sx, sy, sz):
        assert np.allclose(p @ p, s0)
    assert np.allclose(sx @ sy - sy @ sx, 2j * sz)
