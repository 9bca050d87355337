"""equivariant_diamond against pinned digests and the cell-by-cell reference."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodge_asym.cmbuild import CMData, build_cm, equivariant_diamond
from hodge_asym.cyclochar import CharRep, PrimeContext, WORD, exterior_table, field_width
from hodge_asym.hodgecalc import HodgePolynomial

from oracles import dot_product_diamond


@pytest.mark.parametrize("l,cells,digest", [
    (61, 3713, "00add28c9a7286ddf4a71d12af9b5ec48c20f3211cc3e77d703e2cd30fe1b4a0"),
    (101, 10193, "9eeabcc099e07572cf62dd5be4e5851d59d34619f364f9a80cb895e9046fe2e0"),
])
def test_large_diamond_digest_is_pinned(l, cells, digest):
    # sha256 of the sorted cells, recorded with the cell-by-cell dot products;
    # the golden corpus stops at dimension 28, these are dimension 60 and 100
    z = build_cm(2, l=l)
    coeffs = sorted(equivariant_diamond(z).coeffs)
    assert len(coeffs) == cells
    assert hashlib.sha256(repr(coeffs).encode()).hexdigest() == digest


def bare_cm(w_omega: CharRep, w_o: CharRep) -> CMData:
    """A CMData holding only the two modules: equivariant_diamond reads nothing else."""
    ctx = PrimeContext(p=0, l=w_omega.l, ord=0)
    return CMData(ctx=ctx, V=w_omega, search=None, W_omega=w_omega, W_o=w_o, oriented=False)


def modules(max_mult: int):
    @st.composite
    def draw(draw):
        l = draw(st.sampled_from([2, 3, 5, 7, 11]))
        mults = st.lists(st.integers(0, max_mult), min_size=l, max_size=l)
        return CharRep(l, tuple(draw(mults))), CharRep(l, tuple(draw(mults)))
    return draw()


def assert_matches_reference(w_omega: CharRep, w_o: CharRep) -> None:
    expected = dot_product_diamond(exterior_table(w_omega), exterior_table(w_o))
    diamond = equivariant_diamond(bare_cm(w_omega, w_o))
    assert dict(diamond.coeffs) == expected
    # the kernel emits its cells in (i, j) order, nonzero, as create would store them
    keys = [key for key, _ in diamond.coeffs]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert diamond.coeffs == HodgePolynomial.create(dict(diamond.coeffs)).coeffs
    # top=3, as build-cm asks for, keeps exactly the cells with i, j <= 3
    low = equivariant_diamond(bare_cm(w_omega, w_o), top=3)
    assert low.coeffs == tuple((k, c) for k, c in diamond.coeffs if max(k) <= 3)


@settings(max_examples=60, deadline=None)
@given(pair=modules(2))
def test_matches_reference_on_random_modules(pair):
    assert_matches_reference(*pair)


@settings(max_examples=30, deadline=None)
@given(pair=modules(9))
def test_matches_reference_on_large_multiplicities(pair):
    assert_matches_reference(*pair)


@pytest.mark.parametrize("w_omega,w_o", [
    # every exponent 0: cell (i, j) is C(r, i) * C(s, j), the largest a cell can be
    ("l=5; 0:24", "l=5; 0:24"),
    # one exponent per side, inverse to each other: all mass on one field per row
    ("l=7; 3:20", "l=7; 4:20"),
    ("l=2; 0:1,1:30", "l=2; 1:30"),
    ("l=5;", "l=5; 1:3"),  # an empty side: only row 0
    # every floor of one side 0 (each row of l=5; 0:24 has empty exponents,
    # so its residuals are its rows), against a side with positive floors
    ("l=5; 0:24", "l=5; 0:2,1:3,2:4,3:1,4:2"),
    ("l=5; 0:2,1:3,2:4,3:1,4:2", "l=5; 0:24"),
    ("l=5;", "l=5;"),  # both sides empty: the single cell (0, 0)
    # a constant row: Lambda^1 is (1, 1), so its residual is 0
    ("l=2; 0:1,1:1", "l=2; 0:1,1:1"),
    ("l=2; 0:1,1:1", "l=2; 0:3,1:2"),
])
def test_matches_reference_on_extreme_modules(w_omega, w_o):
    assert_matches_reference(CharRep.from_text(w_omega), CharRep.from_text(w_o))


def test_matches_reference_with_multiword_fields():
    w = CharRep.from_text("l=2; 0:70,1:70")
    # table fields of 138 bits, three words; residuals of 67 bits, so every
    # packed column and dot-product field spans words, and so do the multipliers
    assert field_width(w.rank, w.rank) == 138
    largest_residual = max(max(row) - min(row) for row in exterior_table(w))
    assert largest_residual.bit_length() == 67 > WORD
    assert_matches_reference(w, w)
