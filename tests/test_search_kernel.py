"""search_table's prefix walk against the per-candidate reference and the oracle."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodge_asym.cmbuild import (
    SEARCH_TABLE_CAP,
    TypicalSearchResult,
    build_V,
    degree3_ranks,
    layer_digits,
    module_pair,
    search_table,
    search_typical_U,
)
from hodge_asym.cyclochar import (
    CharRep,
    PrimeContext,
    dual,
    frobenius_twist,
    invariants_rank,
    multiplicative_order,
)

from oracles import subset_exterior


def candidates(l: int, layer_count: int):
    """Typical U in search order: digit b of pair {a, l-a} gives a the
    multiplicity c - b and l - a the multiplicity b."""
    for digits in layer_digits(l, layer_count):
        mult = [0] * l
        for a, big in enumerate(digits, 1):
            mult[a], mult[l - a] = layer_count - big, big
        yield CharRep(l, tuple(mult))


def reference(v: CharRep, ctx: PrimeContext, layer_count: int):
    """Two exterior powers per candidate, no shared prefix: the search before the walk."""
    for u in candidates(ctx.l, layer_count):
        yield (u, *degree3_ranks(*module_pair(v, u, ctx.p)))


def bare_context(p: int, l: int) -> PrimeContext:
    """A (p, l) pair without the ord-divisible-by-4 condition of PrimeContext.create:
    search_table reads only p and l, so any prime l >= 5 and unit p exercise it."""
    return PrimeContext(p=p, l=l, ord=multiplicative_order(p, l))


@pytest.mark.parametrize("l,layer_count", [(5, 0), (5, 1), (5, 2), (13, 1), (13, 2), (17, 1)])
@pytest.mark.parametrize("selector", ["default", "alt"])
def test_matches_reference_on_coset_modules(l, layer_count, selector):
    ctx = PrimeContext.create(2, l)
    v = build_V(ctx, selector)
    assert search_table(v, ctx, layer_count) == list(reference(v, ctx, layer_count))


@pytest.mark.parametrize("text,layer_count", [
    ("l=13; 1:2,3:1,6:1", 2),  # not self-dual, as given with search-typical --V
    # every exponent 0: the start (m0, C(m0,2), C(m0,3)) alone, and field 0 of
    # row 2 reaches C(rank, 2), the bound the width holds
    ("l=5; 0:9", 0),
    ("l=5; 0:9", 2),
])
def test_matches_reference_on_overrides(text, layer_count):
    v = CharRep.from_text(text)
    ctx = PrimeContext.create(2, v.l)
    assert search_table(v, ctx, layer_count) == list(reference(v, ctx, layer_count))


@pytest.mark.parametrize("text,layer_count", [
    # c = 0: the rows' own fields must hold C(R,2) + R, here W_2[0] = 45 > R + 1
    ("l=5; 0:9,1:3,4:3", 0),
    # W_2[2] = C(40,2) lies on the block's exponents {2, 3}, so a product field
    # reaches c C(40,2) = 2340, past the 2047 that C(R+1,2) = 1711 would allow
    ("l=5; 0:12,1:40", 3),
])
def test_matches_reference_at_the_width_bound(text, layer_count):
    v = CharRep.from_text(text)
    ctx = PrimeContext.create(2, v.l)
    assert search_table(v, ctx, layer_count) == list(reference(v, ctx, layer_count))


@pytest.mark.parametrize("l", [19, 23])
def test_matches_reference_on_four_and_five_pair_blocks(l):
    # the block is the last (l-1)//4 pairs: 4 at l=19 (512 candidates), 5 at
    # l=23 (2048); no PrimeContext admits either, as 4 does not divide ord(2)
    ctx = bare_context(2, l)
    v = CharRep.from_exponents(l, [0, 1, 1, 2, 5, l - 3])
    rows = search_table(v, ctx, 1)
    assert len(rows) == 2 ** ((l - 1) // 2)
    assert rows == list(reference(v, ctx, 1))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_matches_reference_on_random_modules(data):
    # 3 and 4 layers put C(m,2) of the prefix's truncated binomial past m
    l = data.draw(st.sampled_from([5, 7, 11, 13]), label="l")
    p = data.draw(st.sampled_from([q for q in (2, 3, 5, 7, 11, 13) if q != l]), label="p")
    mult = data.draw(st.lists(st.integers(0, 2), min_size=l, max_size=l), label="mult")
    layer_count = data.draw(st.integers(0, 4 if l <= 7 else 2), label="layer_count")
    v = CharRep(l, tuple(mult))
    ctx = bare_context(p, l)
    assert search_table(v, ctx, layer_count) == list(reference(v, ctx, layer_count))


@pytest.mark.parametrize("layer_count", range(6))
@pytest.mark.parametrize("text", [
    # a = 1 and 3a = 0 mod 3: Lambda^3 has a Lambda^0 term C(s,3) + C(b,3)
    "l=3;", "l=3; 1:1,2:1", "l=3; 0:2,1:3", "l=3; 0:1,1:1,2:2",
    # no inverse pair: the one candidate U = 0 is ranked on V's own rows
    "l=2;", "l=2; 0:3,1:2",
])
def test_matches_reference_below_five(text, layer_count):
    # the walk refuses l < 5; the per-candidate reference still ranks there
    v = CharRep.from_text(text)
    ctx = bare_context(5, v.l)
    with pytest.raises(ValueError, match="l >= 5"):
        search_table(v, ctx, layer_count)
    for u, r0, r1 in reference(v, ctx, layer_count):
        w_omega, w_o = module_pair(v, u, ctx.p)
        assert r0 == invariants_rank(subset_exterior(w_omega, 3))
        assert r1 == invariants_rank(subset_exterior(w_o, 3))


@pytest.mark.parametrize("l", [2, 3])
def test_refuses_a_modulus_below_five(l):
    # no admissible context has l < 5: 4 | ord(p mod l) gives l = 1 mod 4
    ctx = bare_context(5, l)
    with pytest.raises(ValueError, match="l >= 5"):
        search_table(CharRep(l, (1,) * l), ctx, 1)


def test_rows_match_subset_oracle():
    ctx = PrimeContext.create(2, 13)
    v = build_V(ctx)
    rows = search_table(v, ctx, 1)
    for u, r0, r1 in rows[:: len(rows) // 4]:
        w_omega = CharRep(13, tuple(x + y for x, y in zip(v.mult, u.mult)))
        w_o = CharRep(13, tuple(x + y for x, y in zip(frobenius_twist(v, 2).mult, dual(u).mult)))
        assert r0 == invariants_rank(subset_exterior(w_omega, 3))
        assert r1 == invariants_rank(subset_exterior(w_o, 3))


def test_many_layers_match_subset_oracle():
    # 6 layers: U's counts exceed the top row, so each pair is a binomial step
    ctx = PrimeContext.create(2, 5)
    v = build_V(ctx)
    rows = search_table(v, ctx, 6)
    assert len(rows) == 49
    for u, r0, r1 in rows:
        w_omega = CharRep(5, tuple(x + y for x, y in zip(v.mult, u.mult)))
        w_o = CharRep(5, tuple(x + y for x, y in zip(frobenius_twist(v, 2).mult, dual(u).mult)))
        assert r0 == invariants_rank(subset_exterior(w_omega, 3))
        assert r1 == invariants_rank(subset_exterior(w_o, 3))


@pytest.mark.parametrize("text,p,layer_count", [
    ("l=7; 0:1,1:2,3:1,5:3", 3, 4),
    ("l=7; 2:1,4:2,6:1", 2, 6),
    ("l=11; 0:2,1:1,2:3,4:2,7:1,10:2", 2, 4),
])
def test_matches_reference_on_large_multiplicities_in_the_prefix(text, p, layer_count):
    # two or four prefix pairs, each multiplicity up to 4-6: C(m,2) and C(m,3)
    # of the truncated binomial are well past m, and stack on earlier pairs
    v = CharRep.from_text(text)
    ctx = bare_context(p, v.l)
    rows = search_table(v, ctx, layer_count)
    assert len(rows) == (layer_count + 1) ** ((v.l - 1) // 2)
    assert rows == list(reference(v, ctx, layer_count))


def test_many_layer_table_digest_is_pinned():
    # sha256 of the largest table the cap admits at l=5, 316^2 rows, recorded
    # before the walk extended its prefixes by truncated binomials
    ctx = PrimeContext.create(2, 5)
    rows = search_table(build_V(ctx), ctx, 315)
    text = "\n".join(f"{u.to_text()} {r0} {r1}" for u, r0, r1 in rows)
    assert len(rows) == 99856
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d678ecc6866abdcc1f20ecf00b962bfc745770419b48af6fe82e12c5cca7e55b"
    )


def test_two_layer_table_digest_is_pinned():
    # sha256 of the table's text, recorded before search_table became a prefix walk
    ctx = PrimeContext.create(2, 13)
    rows = search_table(build_V(ctx), ctx, 2)
    text = "\n".join(f"{u.to_text()} {r0} {r1}" for u, r0, r1 in rows)
    assert len(rows) == 729
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "edd5945da9854ee5befffc05e4d8596c44960bdd3576c706ade5b7bd1409a49c"
    )


def test_zero_layers_at_large_modulus():
    # (l-1)/2 = 1008 pairs, deeper than the default recursion limit
    ctx = PrimeContext.create(3, 2017)
    v = build_V(ctx)
    rows = search_table(v, ctx, 0)
    assert len(rows) == 1
    assert rows == list(reference(v, ctx, 0))
    assert rows[0][0] == CharRep(2017, (0,) * 2017)


def test_refuses_negative_layer_count_and_oversized_tables():
    ctx = PrimeContext.create(2, 13)
    v = build_V(ctx)
    with pytest.raises(ValueError, match="layer count must be non-negative"):
        search_table(v, ctx, -1)
    # 2^14 rows at l=29 fit under the cap; 2^18 at l=37 do not
    assert 2 ** 14 <= SEARCH_TABLE_CAP < 2 ** 18
    ctx37 = PrimeContext.create(2, 37)
    with pytest.raises(ValueError, match="cap"):
        search_table(build_V(ctx37), ctx37, 1)
    with pytest.raises(ValueError, match="cap"):
        search_table(v, ctx, 10 ** 100)


def first_asymmetric(rows, layer_count: int) -> TypicalSearchResult:
    return next(
        TypicalSearchResult(u, r0, r1, layer_count, idx)
        for idx, (u, r0, r1) in enumerate(rows) if r0 != r1
    )


# the certificate ladder at p=2 and the small-certificate primes at l=5
@pytest.mark.parametrize("p,l", [(2, l) for l in (5, 13, 29, 53, 61, 101)]
                         + [(p, 5) for p in (3, 7, 13, 17, 23, 37, 43, 47, 53)])
@pytest.mark.parametrize("selector", ["default", "alt"])
def test_typical_search_is_the_first_asymmetric_row(p, l, selector):
    ctx = PrimeContext.create(p, l)
    v = build_V(ctx, selector)
    result = search_typical_U(v, ctx)
    assert result == first_asymmetric(reference(v, ctx, 1), 1)
    if l <= 13:
        assert result == first_asymmetric(search_table(v, ctx, 1), 1)
