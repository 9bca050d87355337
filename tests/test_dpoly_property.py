"""The integer DPoly against the Fraction DPoly it replaced (tests/oracles.py).

Every operation must give the same coefficients, values, serialized bytes and
display text as the reference, and equal polynomials must have equal fields
and hashes however they were built.
"""

import itertools
import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from hodge_asym.hodgecalc import DPoly
from oracles import FractionDPoly

EXAMPLES = settings(max_examples=100, deadline=None)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=24)
numbers = st.one_of(st.integers(-50, 50), rationals)
coeff_lists = st.lists(numbers, max_size=6)
points = st.integers(-30, 30)


def same(p: DPoly, ref: FractionDPoly) -> None:
    assert [Fraction(c, p.den) for c in p.nums] == list(ref.coeffs)
    assert all(type(c) is int for c in p.nums)
    assert p.degree == ref.degree
    assert (bool(p), p.is_constant()) == (not ref.is_zero(), ref.is_constant())


def assert_same_fields(p: DPoly, q: DPoly) -> None:
    assert p == q
    assert (p.nums, p.den) == (q.nums, q.den)
    assert hash(p) == hash(q)


@EXAMPLES
@given(coeff_lists, coeff_lists, numbers)
def test_arithmetic_agrees_with_the_fraction_reference(a, b, c):
    p, pr = DPoly.create(a), FractionDPoly.create(a)
    q, qr = DPoly.create(b), FractionDPoly.create(b)
    same(p, pr)
    same(p + q, pr + qr)
    same(p - q, pr - qr)
    same(-p, -pr)
    same(p * q, pr * qr)
    same(p * DPoly.constant(c), pr.scale(c))
    same(DPoly.constant(c), FractionDPoly.constant(c))
    same(p + 3, pr + 3)
    same(3 + p, 3 + pr)
    same(p - 3, pr - 3)


@EXAMPLES
@given(coeff_lists, st.lists(st.integers(-50, 50), max_size=6), st.integers(-12, 12))
def test_int_scaling_and_equal_denominator_sums_agree(a, ints, k):
    # q = p + an integer polynomial keeps p's denominator, so p + q, q + p and
    # p - q take the equal-denominator path of __add__
    p, pr = DPoly.create(a), FractionDPoly.create(a)
    q, qr = p + DPoly.create(ints), pr + FractionDPoly.create(ints)
    assert q.den == p.den
    for got, want in ((p + q, pr + qr), (q + p, qr + pr), (p - q, pr - qr), (p + p, pr + pr)):
        same(got, want)
        assert_same_fields(got, DPoly.create(want.coeffs))
    for got in (p * k, k * p):
        same(got, pr.scale(k))
        assert_same_fields(got, p * DPoly.constant(k))
    assert_same_fields(p * 0, DPoly(()))


@pytest.mark.parametrize(
    "coeffs",
    [
        [Fraction(-3, 4), Fraction(1, 2), -2, 0, Fraction(5, 4)],  # 2/4 and -8/4 reduce
        [Fraction(6, 9), Fraction(-1, 3)],  # 6/9 reduces to 2/3
        [0, Fraction(-12, 6), 0, Fraction(-10, 15)],  # -2 over one, -2/3
        [Fraction(-1, 6), Fraction(-1, 1), Fraction(1, 1)],  # -d, d^2 print bare
        [Fraction(-7, 1), Fraction(-3, 2), Fraction(-2, 1)],  # every coefficient negative
        [Fraction(-5, 10), 0, 0, Fraction(3, 2)],
    ],
)
def test_bytes_and_text_with_negative_and_reducing_coefficients(coeffs):
    p, pr = DPoly.create(coeffs), FractionDPoly.create(coeffs)
    assert p.den > 1 or all(type(c) is int for c in coeffs)
    assert json.dumps(p.serialize()) == json.dumps(pr.serialize())
    assert p.display() == pr.display()
    assert (-p).display() == (-pr).display()
    assert json.dumps((-p).serialize()) == json.dumps((-pr).serialize())


@EXAMPLES
@given(st.lists(numbers, min_size=1, max_size=6), st.booleans())
def test_cached_ratios_give_the_reference_bytes_and_text(a, display_first):
    # serialize and display read one cached tuple of signed ratios; display must
    # strip the sign it prints apart, whichever of the two reads the tuple first
    p, pr = DPoly.create(a), FractionDPoly.create(a)
    assume(p.den > 1 and any(c < 0 for c in p.nums))
    for poly, ref in ((p, pr), (-p, -pr)):
        if display_first:
            assert poly.display() == ref.display()
        assert json.dumps(poly.serialize()) == json.dumps(ref.serialize())
        assert poly.display() == ref.display()


@EXAMPLES
@given(coeff_lists, points)
def test_values_bytes_and_text_agree(a, d):
    p, pr = DPoly.create(a), FractionDPoly.create(a)
    assert type(p.eval(d)) is Fraction and p.eval(d) == pr.eval(d)
    try:
        expected = pr.eval_int(d)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            p.eval_int(d)
        assert str(got.value) == str(e)
    else:
        assert p.eval_int(d) == expected
    assert json.dumps(p.serialize()) == json.dumps(pr.serialize())
    same(DPoly.deserialize(pr.serialize()), FractionDPoly.deserialize(pr.serialize()))
    assert_same_fields(DPoly.deserialize(p.serialize()), p)
    assert p.display() == pr.display()


@EXAMPLES
@given(st.integers(0, 12), st.integers(-4, 4), st.integers(-10, 10), points)
def test_binomial_linear_agrees(k, a, b, d):
    p, pr = DPoly.binomial_linear(k, a, b), FractionDPoly.binomial_linear(k, a, b)
    same(p, pr)
    assert p.eval_int(d) == pr.eval_int(d)  # C(a*d + b, k) is an integer
    same(DPoly.binomial_linear(k, 1, b), FractionDPoly.binomial(k, b))
    assert p.display() == pr.display()


def test_negative_binomial_order_is_refused():
    for cls in (DPoly, FractionDPoly):
        with pytest.raises(ValueError):
            cls.binomial_linear(-1, 1, 0)


@EXAMPLES
@given(coeff_lists, coeff_lists, st.integers(1, 9))
def test_equal_polynomials_have_equal_fields_and_hashes(a, b, m):
    p, q = DPoly.create(a), DPoly.create(b)
    assert (p == q) == (FractionDPoly.create(a) == FractionDPoly.create(b))
    total = p + q
    # one common denominator, positive and in lowest terms
    assert total.den > 0 and gcd(total.den, *total.nums) == 1
    assert not total.nums or total.nums[-1] != 0
    summed = [x + y for x, y in itertools.zip_longest(a, b, fillvalue=0)]
    for other in (
        q + p,
        DPoly.create(summed),
        p - (-q),
        total * m * DPoly.constant(Fraction(1, m)),
        total * DPoly.constant(1),
        DPoly.deserialize(total.serialize()),
    ):
        assert_same_fields(other, total)
    assert_same_fields(p * q, q * p)
    assert_same_fields(p - p, DPoly(()))
