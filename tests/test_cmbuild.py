import itertools
from fractions import Fraction

import pytest

from hodge_asym import cmbuild
from hodge_asym.cmbuild import (
    DIAMOND_COST_CAP,
    MAX_LAYERS,
    EqualRanks,
    TypicalSearchResult,
    assemble_Z,
    build_V,
    build_cm,
    candidate_walk,
    cm_type,
    degree_slice,
    equivariant_diamond,
    find_l,
    degree3_ranks,
    module_pair,
    search_table,
    search_typical_U,
    split_layers,
    st_slopes,
)
from hodge_asym.cyclochar import (
    P_CAP,
    CharRep,
    PrimeContext,
    dual,
    exterior_power,
    frobenius_twist,
    invariants_rank,
    is_prime,
    is_typical,
)
import sweep_classes
from oracles import pair_tensor, subgroup_coset_V, subset_exterior, triple_invariants


def rep(l, mults):
    return CharRep.from_dict(l, mults)


def test_caps_on_p_and_on_the_diamond():
    # 999983 and 1000003 are the primes either side of P_CAP
    assert find_l(999983).l == 5
    for refused in (lambda: find_l(1000003), lambda: PrimeContext.create(1000003, 5)):
        with pytest.raises(ValueError, match=f"P_CAP={P_CAP}"):
            refused()
    # one layer: dim = l - 1, so l=157 costs 3.8e6 and l=173 costs 5.1e6
    z = build_cm(2, l=157)
    assert z.dim ** 2 * 157 <= DIAMOND_COST_CAP < 172 ** 2 * 173
    with pytest.raises(ValueError, match=f"DIAMOND_COST_CAP={DIAMOND_COST_CAP}"):
        build_cm(2, l=173)


def test_find_l_examples():
    assert (find_l(2).l, find_l(2).ord) == (5, 4)
    assert (find_l(3).l, find_l(3).ord) == (5, 4)
    # p = 11 skips l=5 (ord 1) and l=7 (ord 3)
    ctx = find_l(11)
    assert (ctx.l, ctx.ord) == (13, 12)
    # p = 5 stops at l=13 with ord 4, below l - 1: the order is p's, not l's
    assert (find_l(5).l, find_l(5).ord) == (13, 4)
    for p in filter(is_prime, range(2, 2000)):
        assert find_l(p) == PrimeContext.create(p, find_l(p).l), p
    # tests/sweep_classes.py checks every p <= P_CAP; 317459 is the one that needs 97
    assert max(find_l(p).l for p in range(2, 10_000) if is_prime(p)) == 61
    assert [find_l(p).l for p in (115021, 329969, 317459)] == [73, 89, 97]
    with pytest.raises(ValueError):
        find_l(4)


def test_build_V_examples():
    ctx = PrimeContext.create(2, 5)
    v = build_V(ctx)
    assert v == rep(5, {1: 1, 4: 1})
    assert frobenius_twist(v, 2) == rep(5, {2: 1, 3: 1})
    alt = build_V(ctx, "alt")
    assert alt == rep(5, {2: 1, 3: 1})
    with pytest.raises(ValueError):
        build_V(ctx, "other")


def test_build_V_invariants():
    for p, l in [(2, 5), (3, 5), (11, 13), (2, 17), (7, 13)]:
        ctx = PrimeContext.create(p, l)
        for selector in ("default", "alt"):
            v = build_V(ctx, selector)
            tau = frobenius_twist(v, p)
            assert dual(v) == v
            assert tau != v
            assert frobenius_twist(tau, p) == v  # tau^2 V = V
            # V and tau V partition the nonzero characters with multiplicity one
            union = tuple(a + b for a, b in zip(v.mult, tau.mult))
            assert union == (0,) + (1,) * (l - 1)


def test_cm_type_examples():
    assert cm_type(rep(5, {1: 1, 2: 1})) == frozenset({4, 3})
    assert cm_type(rep(5, {4: 1, 3: 1})) == frozenset({1, 2})
    assert cm_type(rep(5, {1: 1, 3: 1})) == frozenset({4, 2})
    with pytest.raises(ValueError):
        cm_type(rep(5, {1: 1, 4: 1}))  # not typical
    with pytest.raises(ValueError):
        cm_type(rep(5, {1: 2, 2: 2, 3: 1, 4: 1}))  # wrong rank


def test_st_slopes_examples():
    ctx = PrimeContext.create(2, 5)
    assert st_slopes({3, 4}, ctx) == {Fraction(1, 2): 4}
    ctx13 = PrimeContext.create(11, 13)
    layer = rep(13, {a: 1 for a in range(1, 7)})  # lower half: a typical layer
    phi = cm_type(layer)
    assert st_slopes(phi, ctx13) == {Fraction(1, 2): 12}  # transitive orbit
    with pytest.raises(ValueError):
        st_slopes({1, 4}, ctx)  # not closed under complement-negation


def test_st_slopes_endpoint_and_symmetry():
    for p, l in [(2, 5), (3, 5), (11, 13), (2, 17)]:
        ctx = PrimeContext.create(p, l)
        # the negated lower half is always a CM type
        phi = frozenset((-a) % l for a in range(1, (l + 1) // 2))
        slopes = st_slopes(phi, ctx)
        total = sum(s * m for s, m in slopes.items())
        assert total == Fraction(l - 1, 2)
        assert all(slopes.get(1 - s, 0) == m for s, m in slopes.items())


def test_typical_candidate_order():
    ctx = PrimeContext.create(2, 5)
    v = build_V(ctx)
    cands = [u for u, _, _ in search_table(v, ctx, 1)]
    assert cands == [
        rep(5, {1: 1, 2: 1}),
        rep(5, {1: 1, 3: 1}),
        rep(5, {4: 1, 2: 1}),
        rep(5, {4: 1, 3: 1}),
    ]
    assert all(is_typical(u) for u in cands)
    two_layer = [u for u, _, _ in search_table(v, ctx, 2)]
    assert len(two_layer) == 9
    assert all(is_typical(u) and u.rank == 4 for u in two_layer)


def test_split_layers():
    u = rep(5, {1: 2, 2: 1, 3: 1})
    layers = split_layers(u)
    assert len(layers) == 2
    assert all(is_typical(layer) and layer.rank == 2 for layer in layers)
    total = [0] * 5
    for layer in layers:
        total = [a + b for a, b in zip(total, layer.mult)]
    assert tuple(total) == u.mult


def test_search_example_p2():
    ctx = PrimeContext.create(2, 5)
    v = build_V(ctx)
    result = search_typical_U(v, ctx)
    assert result.U == rep(5, {1: 1, 2: 1})
    assert (result.r0, result.r1) == (0, 1)
    assert result.layer_count == 1 and result.candidate_index == 0


def test_search_p3():
    ctx = PrimeContext.create(3, 5)
    v = build_V(ctx)
    result = search_typical_U(v, ctx)
    assert result.r0 != result.r1
    # verified against the subset-enumeration oracle
    exps_a = sorted(v.exponents() + result.U.exponents())
    exps_b = sorted(frobenius_twist(v, 3).exponents() + dual(result.U).exponents())
    assert result.r0 == triple_invariants(exps_a, [], 5, wedge_a=3)
    assert result.r1 == triple_invariants(exps_b, [], 5, wedge_a=3)


def test_search_swap_symmetry():
    # swapping V <-> tau V swaps (r0, r1)
    ctx = PrimeContext.create(2, 5)
    v = build_V(ctx)
    u = rep(5, {1: 1, 2: 1})
    r0, r1 = degree3_ranks(*module_pair(v, u, 2))
    # relabeling: the alt selector starts from tau V
    v_alt = build_V(ctx, "alt")
    assert frobenius_twist(v, 2) == v_alt
    # tau(V_alt) = V and dual(U)'s dual is U, so the pair comes back swapped
    s0, s1 = degree3_ranks(*module_pair(v_alt, dual(u), 2))
    assert (s0, s1) == (r1, r0)


def test_search_table_all_four_rows():
    ctx = PrimeContext.create(2, 5)
    v = build_V(ctx)
    rows = search_table(v, ctx, 1)
    assert [(r0, r1) for _, r0, r1 in rows] == [(0, 1), (1, 0), (1, 0), (0, 1)]
    # brute-force recomputation of each row
    for u, r0, r1 in rows:
        w1 = sorted(v.exponents() + u.exponents())
        w2 = sorted(frobenius_twist(v, 2).exponents() + dual(u).exponents())
        assert r0 == invariants_rank(subset_exterior(CharRep.from_exponents(5, w1), 3))
        assert r1 == invariants_rank(subset_exterior(CharRep.from_exponents(5, w2), 3))


def test_search_errors():
    ctx = PrimeContext.create(2, 5)
    with pytest.raises(ValueError):
        search_typical_U(rep(5, {1: 1, 2: 1}), ctx)  # not self-dual
    with pytest.raises(ValueError):
        search_typical_U(rep(5, {1: 1, 2: 1, 3: 1, 4: 1}), ctx)  # equals its twist


def searched(v, u, ctx):
    """The search record of U, with its ranks computed directly."""
    return TypicalSearchResult(u, *degree3_ranks(*module_pair(v, u, ctx.p)), 1, 0)


def test_assemble_examples():
    ctx = PrimeContext.create(2, 5)
    v = build_V(ctx)
    u = rep(5, {1: 1, 2: 1})
    z = assemble_Z(v, searched(v, u, ctx), ctx)
    assert z.W_omega == rep(5, {1: 2, 2: 1, 4: 1})
    assert z.W_o == rep(5, {2: 1, 3: 2, 4: 1})
    assert z.oriented is False
    # the reversed-inequality start flips to oriented=True and restores it
    v_alt = build_V(ctx, "alt")
    z_alt = assemble_Z(v_alt, searched(v_alt, u, ctx), ctx)
    assert z_alt.oriented is True
    for data in (z, z_alt):
        assert invariants_rank(exterior_power(data.W_omega, 3)) < invariants_rank(
            exterior_power(data.W_o, 3)
        )
    # the two-sided regular-minus-trivial U has rank pair (2, 2)
    with pytest.raises(EqualRanks):
        assemble_Z(v, searched(v, rep(5, {1: 1, 2: 1, 3: 1, 4: 1}), ctx), ctx)


def test_equivariant_diamond_paper_slice():
    z = build_cm(2)
    diamond = equivariant_diamond(z)
    assert degree_slice(diamond, 3) == (0, 5, 2, 1)
    assert diamond.coeff(0, 0) == 1
    # h^{2,1} recomputed by direct triple enumeration
    w1 = z.W_omega.exponents()
    w2 = z.W_o.exponents()
    assert diamond.coeff(2, 1) == triple_invariants(w1, w2, 5, wedge_a=2) == 5
    assert diamond.coeff(1, 2) == triple_invariants(w1, w2, 5, wedge_a=1) == 2


def test_diamond_dualities():
    for p, l in [(2, 5), (3, 5), (11, 13), (2, 17)]:
        z = build_cm(p, l=l)
        diamond = equivariant_diamond(z)
        dim = z.dim
        table = dict(diamond.coeffs)
        for (i, j), c in table.items():
            assert table.get((dim - i, dim - j), 0) == c
        assert diamond.coeff(1, 0) == diamond.coeff(0, 1)
        assert diamond.coeff(2, 0) == diamond.coeff(0, 2)


def test_diamond_total_against_subset_enumeration():
    # the sum of all diamond entries counts subset pairs with zero total exponent
    import itertools

    for p, l in [(2, 5), (3, 5)]:
        z = build_cm(p, l=l)
        diamond = equivariant_diamond(z)
        w1, w2 = z.W_omega.exponents(), z.W_o.exponents()
        count = 0
        for r1 in range(len(w1) + 1):
            for s1 in itertools.combinations(w1, r1):
                for r2 in range(len(w2) + 1):
                    for s2 in itertools.combinations(w2, r2):
                        if (sum(s1) + sum(s2)) % l == 0:
                            count += 1
        assert count == sum(c for _, c in diamond.coeffs)


def test_diamond_cells_l13_oracle():
    z = build_cm(11)
    assert z.ctx.l == 13
    diamond = equivariant_diamond(z)
    w1, w2 = z.W_omega.exponents(), z.W_o.exponents()
    assert diamond.coeff(3, 0) == triple_invariants(w1, [], 13, wedge_a=3)
    assert diamond.coeff(0, 3) == triple_invariants([], w2, 13, wedge_a=0)
    assert diamond.coeff(2, 1) == triple_invariants(w1, w2, 13, wedge_a=2)
    assert diamond.coeff(1, 2) == triple_invariants(w1, w2, 13, wedge_a=1)


def test_slice_sweep_small_primes():
    # every p < 50 compatible with l = 5 gives one of the two degree-3 slices
    primes = [2, 3, 7, 13, 17, 23, 37, 43, 47]
    assert all(p % 5 in (2, 3) for p in primes)
    for p in primes:
        for selector in ("default", "alt"):
            ctx = PrimeContext.create(p, 5)
            v = build_V(ctx, selector)
            result = search_typical_U(v, ctx)
            w_omega = CharRep(5, tuple(a + b for a, b in zip(v.mult, result.U.mult)))
            w_o = CharRep(
                5,
                tuple(
                    a + b
                    for a, b in zip(
                        frobenius_twist(v, p).mult, dual(result.U).mult
                    )
                ),
            )
            pre = CMData_like_slice(w_omega, w_o)
            assert pre in [(0, 5, 2, 1), (1, 2, 5, 0)]


def CMData_like_slice(w_omega, w_o):

    out = []
    for t in range(4):
        i = 3 - t
        prod = pair_tensor(exterior_power(w_omega, i), exterior_power(w_o, t))
        out.append(invariants_rank(prod))
    return tuple(out)


def test_search_exhausted(monkeypatch):
    ctx = PrimeContext.create(2, 5)
    v = build_V(ctx)
    # no natural failure exists at l=5 (the first candidate already wins),
    # so exhaust the search with a walk whose every rank pair is symmetric
    walk = cmbuild.candidate_walk
    monkeypatch.setattr(
        cmbuild, "candidate_walk",
        lambda *a: ((u, 0, 0) for u, _, _ in walk(*a)),
    )
    with pytest.raises(ValueError, match="no asymmetric typical U") as err:
        search_typical_U(v, ctx)
    assert f"at most MAX_LAYERS={MAX_LAYERS} layers" in str(err.value)


def test_every_admissible_input_stops_at_the_first_candidate():
    # the walk depends on p only mod l, so one prime per residue with 4 | ord
    # covers every p; 157 is the largest modulus DIAMOND_COST_CAP admits
    # (dim = l - 1). Candidate 0 of layer 1 wins for each, which is why the
    # search's MAX_LAYERS limit is never reached from a certificate.
    assert 156 ** 2 * 157 <= DIAMOND_COST_CAP < 162 ** 2 * 163
    cases = 0
    for ctx, selector in sweep_classes.classes(157):
        v = build_V(ctx, selector)
        assert v == subgroup_coset_V(ctx, selector), (ctx.p, ctx.l, selector)
        _, r0, r1 = next(candidate_walk(v, ctx, 1))
        assert r0 != r1, (ctx.p, ctx.l, selector)
        cases += 1
    assert cases == 1612


def test_diamond_cap_is_decided_before_V_is_built(monkeypatch):
    # dim = l - 1 is known from l alone, so a refused l builds no V and walks
    # no candidate; at l=2801 the search alone takes ~0.13 s
    def refuse(*_):
        raise AssertionError("build_V reached")

    monkeypatch.setattr(cmbuild, "build_V", refuse)
    with pytest.raises(ValueError) as err:
        build_cm(2, l=2801)
    assert str(err.value) == (
        f"diamond cost dim^2*l = 2800^2*2801 is above the cap DIAMOND_COST_CAP={DIAMOND_COST_CAP}"
    )
