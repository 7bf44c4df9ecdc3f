"""Every known wrong integer, pinned as a strict expected failure.

Each case asserts the right integer, or accepts a typed refusal, and is
marked ``xfail(strict=True, raises=AssertionError)``: it fails today by
returning a wrong integer.  A change that makes one return the right
integer or refuse turns its case into an unexpected pass, which the
suite counts as a failure; that change then turns the case into a plain
test.  ``raises=AssertionError`` keeps a crash from passing as the
expected failure.

The right integers: ``chern_number`` is -1 for ``h1_example`` and for
``qwz_model(m)`` with m in (-2, 0), the edge flow is minus that, and the
corner flow of the product with ``h2_example`` (winding -1) is their
product, +1.
"""

import pytest

import cornerlab as cl
from cornerlab import geometry, symbol
from cornerlab.errors import EigensolverError, GapClosedError, ResidualError, TrackingError

PAIR = geometry.SlopePair(geometry.Slope.rational(0, 1), geometry.Slope.plus_inf())
_REFUSALS = (GapClosedError, ResidualError, TrackingError, EigensolverError)


def _qwz_product(m):
    h2 = symbol.builtin_models()["h2_example"]
    return symbol.product_hamiltonian(symbol.qwz_model(m), h2.symbol, h2.grading)


CASES = {
    "edge_flow_qwz-1.9_defaults": (lambda: cl.edge_spectral_flow(symbol.qwz_model(-1.9)), 1),
    "edge_flow_qwz-1.8_W8": (lambda: cl.edge_spectral_flow(symbol.qwz_model(-1.8), W=8), 1),
    "corner_flow_qwz-1.89_L24": (
        lambda: cl.corner_spectral_flow(_qwz_product(-1.89), PAIR, 24)[0], 1),
    "corner_flow_qwz-1.8_L8": (
        lambda: cl.corner_spectral_flow(_qwz_product(-1.8), PAIR, 8)[0], 1),
    "chern_h1_example_grid1": (
        lambda: cl.chern_number(symbol.builtin_models()["h1_example"].symbol, grid=1), -1),
    "chern_qwz-0.1_grid3": (lambda: cl.chern_number(symbol.qwz_model(-0.1), 3), -1),
}


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="known wrong integer")
@pytest.mark.parametrize("name", sorted(CASES))
def test_known_wrong_integer(name):
    compute, right = CASES[name]
    try:
        got = compute()
    except _REFUSALS:
        return
    assert got == right
