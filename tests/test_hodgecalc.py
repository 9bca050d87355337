import random
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from hodge_asym.hodgecalc import (
    DeltaExpr,
    DPoly,
    HodgePolynomial,
    SpecialFiberFix,
    blow_up,
    blow_up_tower,
    hypersurface,
    iterated_blow_up,
    middle_row_count,
    minimal_ambient_dims,
    polarization_degree_search,
    polarization_value,
    product,
    projective_space,
    special_fiber_fix,
    stack_series,
    weil_restriction_delta30,
    weil_restriction_power,
)
from hodge_asym.hodgecalc import _ELLIPTIC, _FIBER_AUX
from hodge_asym.pipeline import QuotientData, assemble_delta, symbolic_hypersurface
from oracles import (
    edge_product,
    lattice_middle_row,
    naive_table_product,
    stepwise_blow_up_tower,
    stepwise_fiber_aux,
)

H = HodgePolynomial.create


def value(exact: int, opaque: dict[str, int] | None = None) -> DeltaExpr:
    """A DeltaExpr with constant coefficients."""
    return DeltaExpr.create(
        DPoly.constant(exact), {s: DPoly.constant(c) for s, c in (opaque or {}).items()}
    )


# the degree <= 3 ledger of a quotient with delta^{3,0} = -1
LEDGER = QuotientData(h_i0=(1, 0, 0, 0), h_0j=(1, 0, 0, 1)).ledger


def test_product_examples():
    p1 = projective_space(1)
    assert product(p1, p1) == H({(0, 0): 1, (1, 1): 2, (2, 2): 1})
    h = H({(0, 0): 1, (2, 1): 3})
    assert product(h, HodgePolynomial.one()) == h
    assert product(H({(0, 0): 1, (3, 0): 1}), H({(0, 0): 1, (0, 3): 1})).coeff(3, 3) == 1


def test_product_algebra_properties():
    rng = random.Random(3)

    def rand_poly():
        return H(
            {
                (rng.randint(0, 3), rng.randint(0, 3)): rng.randint(1, 4)
                for _ in range(rng.randint(0, 5))
            }
        )

    for _ in range(40):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert product(a, b) == product(b, a)
        assert product(product(a, b), c) == product(a, product(b, c))
        assert product(a, HodgePolynomial.one()) == a
        assert dict(product(a, b).coeffs) == naive_table_product(dict(a.coeffs), dict(b.coeffs))


def test_product_against_naive_convolution_with_bounds():
    rng = random.Random(20)

    def rand_table():
        bound = rng.choice([None, None, 0, rng.randint(1, 10)])
        cells = {
            (rng.randint(0, 7), rng.randint(0, 7)): rng.randint(1, 5)
            for _ in range(rng.randint(0, 8))
        }
        return H(cells, bound)

    cases = [(rand_table(), rand_table()) for _ in range(400)]
    cases += [
        (H({}), H({(0, 0): 1, (2, 3): 4})),  # an empty factor
        (H({}, 0), H({})),
        (H({(0, 0): 2, (1, 0): 1}, 0), H({(0, 0): 3, (0, 1): 5})),  # bound 0
        # cells on both sides of the bound: only the pairs summing to <= 4 stay
        (H({(0, 0): 1, (1, 1): 2, (3, 1): 1}, 4), H({(0, 0): 1, (0, 2): 3, (2, 2): 1, (5, 5): 1})),
    ]
    for a, b in cases:
        bound = min([h.bound for h in (a, b) if h.bound is not None], default=None)
        want = naive_table_product(dict(a.coeffs), dict(b.coeffs), bound)
        got = product(a, b)
        assert dict(got.coeffs) == want and got.bound == bound
        # built without create, yet stored as create would store it
        assert got == H(want, bound) == product(b, a)


def test_product_stays_sparse_at_huge_bidegrees():
    # a kernel that sized anything by bidegree would not finish here
    far = H({(10**9, 0): 1})
    assert product(far, far) == H({(2 * 10**9, 0): 1})
    assert product(far, H({(0, 0): 1}, 10**9)) == H({(10**9, 0): 1}, 10**9)
    assert product(far, H({(0, 1): 1}, 10**9)).coeffs == ()


def test_symbolic_product_in_either_order():
    surface, line = symbolic_hypersurface(2), projective_space(1)
    assert product(surface, line) == product(line, surface)
    assert product(line, surface).coeff(3, 1) == surface.coeff(2, 0)
    assert 3 * DPoly.binomial_linear(2, 1, 0) == DPoly.binomial_linear(2, 1, 0) * 3
    # (1 + d*x) * (d - d^2*x): the x terms cancel, and the zero cell is dropped
    d = DPoly.create([0, 1])
    a, b = H({(0, 0): 1, (1, 0): d}), H({(0, 0): d, (1, 0): -(d * d)})
    assert product(a, b).coeffs == (((0, 0), d), ((2, 0), -(d * d * d)))


def test_product_refuses_untracked_cells():
    threefold = symbolic_hypersurface(3)  # its interior middle cells are untracked
    for a, b in ((threefold, projective_space(1)), (projective_space(1), threefold)):
        with pytest.raises(ValueError, match=r"untracked cells \[\(1, 2\), \(2, 1\)\]"):
            product(a, b)


FAR = 10**9
D = DPoly.create([0, 1])
lookup_degrees = st.one_of(st.integers(0, 6), st.integers(FAR, FAR + 2))
lookup_cells = st.tuples(lookup_degrees, lookup_degrees)


@st.composite
def lookup_tables(draw):
    values = draw(st.sampled_from([
        st.integers(0, 3), st.sampled_from([D, -D, D * D, DPoly.constant(2)])
    ]))
    coeffs = draw(st.dictionaries(lookup_cells, values, max_size=8))
    bound = draw(st.one_of(st.none(), st.integers(0, 12), st.integers(FAR, 2 * FAR + 4)))
    return H(coeffs, bound, draw(st.frozensets(lookup_cells, max_size=3)))


@settings(max_examples=300, deadline=None)
@given(lookup_tables(), st.lists(lookup_cells, max_size=4))
@example(H({}), [])
@example(H({(0, 1): 2, (FAR, 0): 1, (FAR, 3): D}), [])
@example(H({(1, 1): 1, (2, 0): 1}, unknown=[(1, 2), (2, 1)]), [])
def test_coeff_is_the_stored_cell_or_zero(h, probes):
    # coeff bisects the sorted cells: probe every stored and untracked cell, its
    # neighbours (between cells), cells before the first and after the last,
    # and far bidegrees
    cells = dict(h.coeffs)
    probes = {*probes, *cells, *h.unknown, (-1, 0), (0, 0), (FAR, 0), (0, FAR), (3 * FAR, 0)}
    for i, j in list(probes):
        probes |= {(i - 1, j), (i, j - 1), (i, j + 1), (i + 1, j)}
    for i, j in probes:
        assert h.coeff(i, j) == cells.get((i, j), 0), (i, j)


def test_projective_space():
    assert projective_space(0) == HodgePolynomial.one()
    assert projective_space(2) == H({(0, 0): 1, (1, 1): 1, (2, 2): 1})
    for n in range(1, 6):
        assert hypersurface(1, n) == projective_space(n)
    with pytest.raises(ValueError):
        projective_space(-1)


def test_blow_up_examples():
    point = HodgePolynomial.one()
    assert blow_up(projective_space(2), point, 1) == H(
        {(0, 0): 1, (1, 1): 2, (2, 2): 1}
    )
    assert blow_up(projective_space(3), projective_space(1), 1) == H(
        {(0, 0): 1, (1, 1): 2, (2, 2): 2, (3, 3): 1}
    )
    amb = projective_space(4)
    assert blow_up(amb, HodgePolynomial(()), 2) == amb
    with pytest.raises(ValueError):
        blow_up(amb, point, 0)


def test_blow_up_structure():
    rng = random.Random(5)
    for _ in range(25):
        center = H(
            {
                (rng.randint(0, 2), rng.randint(0, 2)): rng.randint(1, 3)
                for _ in range(rng.randint(0, 4))
            }
        )
        ambient = projective_space(rng.randint(3, 6))
        r = rng.randint(1, 3)
        blown = blow_up(ambient, center, r)
        assert blown.coeff(0, 0) == ambient.coeff(0, 0)  # connectedness
        # added mass sits exactly on the diagonal shifts of the center
        diff = {
            k: blown.coeff(*k) - ambient.coeff(*k)
            for k in set(dict(blown.coeffs)) | set(dict(ambient.coeffs))
        }
        expected = naive_table_product(
            dict(center.coeffs), {(t, t): 1 for t in range(1, r + 1)}
        )
        assert {k: c for k, c in diff.items() if c} == expected


def test_blow_up_symbolic_center_with_unknown_cells():
    d = DPoly.create([0, 1])
    center = H({(0, 0): 1, (1, 0): d, (0, 1): d}, unknown={(1, 1)})
    assert center.coeff(0, 0) == DPoly.constant(1)  # int cells of a symbolic table
    blown = blow_up(projective_space(3), center, 1)
    assert blown.unknown == {(2, 2)}
    assert blown.coeff(2, 2) == 0  # untracked, so the ambient's 1 is dropped too
    assert blown.coeff(1, 1) == DPoly.constant(2)
    assert blown.coeff(2, 1) == blown.coeff(1, 2) == d
    assert blown.coeff(3, 3) == DPoly.constant(1)


def test_hypersurface_paper_values():
    assert hypersurface(5, 2).coeff(2, 0) == comb(4, 3) == 4
    assert tuple(hypersurface(4, 2).coeff(a, 2 - a) for a in (2, 1, 0)) == (1, 20, 1)
    assert hypersurface(3, 2).coeff(1, 1) == 7
    assert hypersurface(3, 2).coeff(2, 0) == comb(2, 3) == 0
    assert hypersurface(5, 2).coeff(1, 1) == 45


def test_hypersurface_middle_row_against_lattice_oracle():
    # d in {1, 2} has no lattice points: every primitive count is 0
    for d in range(1, 8):
        for n in range(1, 5):
            h = hypersurface(d, n)
            for p in range(n + 1):
                expected = lattice_middle_row(d, n, p)
                assert middle_row_count(d, n, p) == expected, (d, n, p)
                assert h.coeff(p, n - p) == expected + (1 if 2 * p == n else 0), (d, n, p)


def test_quintic_threefold():
    h = hypersurface(5, 3)
    assert (h.coeff(2, 1), h.coeff(1, 2)) == (101, 101)
    assert (h.coeff(3, 0), h.coeff(0, 3)) == (1, 1)
    assert h.coeff(1, 1) == h.coeff(2, 2) == 1


def test_hypersurface_sweep_identities():
    for d in range(1, 11):
        for n in range(1, 6):
            h = hypersurface(d, n)
            assert h.coeff(n, 0) == comb(d - 1, n + 1)
            table = dict(h.coeffs)
            for (a, b), c in table.items():
                assert table.get((b, a), 0) == c  # Hodge symmetry
                assert table.get((n - a, n - b), 0) == c  # Serre duality
                assert a + b == n or a == b  # vanishing pattern
            if n >= 1:
                assert hypersurface(2, n).coeff(n, 0) == 0
    with pytest.raises(ValueError):
        hypersurface(0, 2)
    with pytest.raises(ValueError):
        hypersurface(3, 0)


def test_blow_up_tower_examples():
    assert blow_up_tower(4, 2, 0) == hypersurface(4, 2)
    # one stage over 3-space on a plane cubic
    got = blow_up_tower(3, 1, 1, (3,))
    expected = H(
        {(0, 0): 1, (1, 1): 2, (2, 1): 1, (1, 2): 1, (2, 2): 2, (3, 3): 1}
    )
    assert got == expected
    assert got.coeff(2, 1) == 1
    with pytest.raises(ValueError):
        blow_up_tower(3, 1, 1, (2,))  # codimension 1 embedding


def test_blow_up_tower_decomposition():
    # H = F(xy) + H_T * (xy)^s * G(xy) with F, G of constant term 1
    for d, n, s in [(3, 1, 1), (4, 1, 2), (3, 2, 1), (5, 1, 3)]:
        dims = minimal_ambient_dims(n, s)
        tower = blow_up_tower(d, n, s, dims)
        g = HodgePolynomial.one()  # minimal ambients have r_t = 1
        shift = H({(s, s): 1})
        rest = product(product(hypersurface(d, n), shift), g)
        f = {
            k: tower.coeff(*k) - rest.coeff(*k)
            for k in set(dict(tower.coeffs)) | set(dict(rest.coeffs))
        }
        f = {k: c for k, c in f.items() if c}
        assert all(i == j for (i, j) in f)
        assert f.get((0, 0)) == 1


def test_blow_up_tower_offdiagonal_support():
    for d, n, s in [(3, 1, 1), (4, 1, 2), (4, 2, 1), (5, 3, 2)]:
        tower = blow_up_tower(d, n, s)
        if hypersurface(d, n).coeff(n, 0) == 0:
            continue
        offdiag = [i + j for (i, j) in dict(tower.coeffs) if i != j]
        assert min(offdiag) == n + 2 * s


def tower_dims(n: int, runs: tuple[int, ...]) -> tuple[int, ...]:
    """Ambient dimensions whose stages have r_t = runs[t]: N_t = dim(Y_t) + r_t + 1."""
    dims, cur = [], n
    for r in runs:
        cur += r + 1
        dims.append(cur)
    return tuple(dims)


def test_closed_form_tower_matches_stepwise():
    # the closed form against one blow_up per stage, on integer bases and on
    # symbolic ones, whose n >= 3 interior middle cells are untracked
    bases = [(n, symbolic_hypersurface(n)) for n in (1, 2, 3, 4, 5)]
    bases += [(n, hypersurface(d, n)) for n in (1, 2, 3, 4) for d in (1, 2, 3, 5)]
    cases = 0
    for n, base in bases:
        for s in range(11):
            runs = [(1,) * s, (2,) * s, tuple(1 + t % 3 for t in range(s)), (3,) + (1,) * (s - 1)]
            for dims in {None, *(tower_dims(n, r[:s]) for r in runs)}:
                got = iterated_blow_up(base, n, s, dims)
                assert got == stepwise_blow_up_tower(base, n, s, dims), (n, s, dims)
                cases += 1
    # per base: s = 0 gives None and (), s = 1 None and three runs, s >= 2 None and four
    assert cases == len(bases) * (2 + 4 + 9 * 5)
    unknown = iterated_blow_up(symbolic_hypersurface(3), 3, 2, (5, 9))
    assert unknown.unknown and unknown.unknown.isdisjoint(dict(unknown.coeffs))


def test_tower_refusals_match_stepwise():
    base = symbolic_hypersurface(1)
    refused = [
        (1, -1, None),  # negative s
        (1, 353, None),  # dimension 707 is over TABLE_COST_CAP
        (1, 1, (800,)),  # over the cap before the ambient count is read
        (1, 2, (3,)),  # too few ambient dimensions
        (1, 1, (3, 5)),  # too many
        (1, 1, (2,)),  # r = 0 at the first stage
        (1, 3, (3, 6, 7)),  # r = 0 at the last stage
    ]
    for n, s, dims in refused:
        with pytest.raises(ValueError) as want:
            stepwise_blow_up_tower(base, n, s, dims)
        with pytest.raises(ValueError) as got:
            iterated_blow_up(base, n, s, dims)
        assert str(got.value) == str(want.value), (n, s, dims)


def test_stack_series_examples():
    mu = stack_series("mu_p", 3)
    assert dict(mu.coeffs) == {(0, 0): 1, (1, 0): 1, (1, 1): 1, (2, 1): 1}
    z = stack_series("Z_mod_p", 3)
    assert dict(z.coeffs) == {(0, 0): 1, (0, 1): 1, (0, 2): 1, (0, 3): 1}
    both = product(mu, z)
    assert dict(both.coeffs) == naive_table_product(dict(mu.coeffs), dict(z.coeffs), bound=3)
    assert both.coeff(1, 1) == 2  # xy from x*y and from the mu_p diagonal
    with pytest.raises(ValueError):
        stack_series("other", 3)


def test_series_and_hypersurfaces_are_the_tables_create_builds():
    # both are built without create, so their cells must already be sorted,
    # nonzero and within the bound
    for bound in range(61):
        for kind in ("mu_p", "Z_mod_p"):
            series = stack_series(kind, bound)
            assert series == H(dict(series.coeffs), bound), (kind, bound)
    for d in range(1, 11):
        for n in range(1, 7):
            h = hypersurface(d, n)
            assert h == H(dict(h.coeffs)), (d, n)


def test_stack_series_recurrences():
    mu = stack_series("mu_p", 9)
    for k in range(4):
        assert mu.coeff(k + 1, k + 1) == mu.coeff(k, k) == 1
        assert mu.coeff(k + 2, k + 1) == mu.coeff(k + 1, k) == 1
    z = stack_series("Z_mod_p", 9)
    for k in range(9):
        assert z.coeff(0, k + 1) == z.coeff(0, k) == 1


def test_series_product_truncation():
    a = HodgePolynomial.create({(0, 0): 1, (2, 1): 5}, 6)
    b = HodgePolynomial.create({(3, 3): 1, (0, 0): 1}, 4)
    prod = product(a, b)
    assert prod.bound == 4
    assert prod.coeff(2, 1) == 5
    assert prod.coeff(3, 3) == 0  # total degree 6 > bound 4
    assert prod.coeff(5, 4) == 0


def test_delta():
    h = H({(0, 0): 1, (3, 0): 1})
    assert h.coeff(3, 0) - h.coeff(0, 3) == 1
    assert h.coeff(0, 3) - h.coeff(3, 0) == -1
    assert h.coeff(2, 2) == 0


def test_dpoly_basics():
    c = DPoly.binomial_linear(2, 1, -1)  # C(d-1, 2)
    for d in range(1, 12):
        assert c.eval_int(d) == comb(d - 1, 2)
    lin = DPoly.binomial_linear(3, 2, -1)  # C(2d-1, 3)
    for d in range(1, 8):
        assert lin.eval_int(d) == comb(2 * d - 1, 3)
    assert not c - c
    assert DPoly.create([2, -3, 1]).display() == "d^2 - 3*d + 2"
    assert DPoly.deserialize(c.serialize()) == c
    assert DPoly.constant(5).is_constant() and not c.is_constant()


def test_delta_value_and_expr():
    v = value(2, {"delta(4,1)": 1})
    assert value(0, {"delta(4,1)": 0}) == DeltaExpr() != v
    expr = DeltaExpr.create(DPoly.create([0, 2]), {"delta(4,1)": DPoly.create([0, 1])})
    assert expr.exact.degree >= 1
    assert not expr.opaque_coeffs_d_independent()
    assert DeltaExpr.deserialize(expr.serialize()) == expr


def test_assemble_delta_sums_each_symbol():
    # two cells meet delta^{1,0} and delta^{0,1} = -delta^{1,0}, which cancel
    edges = H({(0, 0): 1, (1, 0): 1, (0, 1): 1})
    assert assemble_delta({}, edges, 1, 1) == DeltaExpr()
    # cell (2,0) meets -delta^{1,0} and cell (1,1) three times delta^{1,0}
    assert assemble_delta({}, H({(2, 0): 1, (0, 2): 1, (1, 1): 3}), 2, 1) == value(
        0, {"delta(1,0)": 2}
    )
    # a DPoly cell gives the opaque symbol a coefficient in d
    d = DPoly.create([0, 1])
    expr = assemble_delta({}, H({(0, 0): 1, (1, 1): d}), 4, 1)
    assert expr == DeltaExpr.create(
        DPoly(()), {"delta(4,1)": DPoly.constant(1), "delta(3,0)": d}
    )
    assert not expr.opaque_coeffs_d_independent()


def test_ledger_lookup():
    # with the one-cell factor the sum is the ledger entry itself
    def entry(i, j):
        return assemble_delta(LEDGER, HodgePolynomial.one(), i, j)

    assert LEDGER == {(1, 0): 0, (2, 0): 0, (2, 1): 3, (3, 0): -1}
    assert entry(3, 0) == value(-1)
    assert entry(0, 3) == value(1)
    assert entry(2, 1) == value(3)
    assert entry(1, 2) == value(-3)
    assert entry(1, 0) == entry(2, 0) == entry(0, 2) == DeltaExpr()
    assert entry(4, 4) == DeltaExpr()
    assert entry(-1, 2) == entry(2, -1) == DeltaExpr()
    assert entry(4, 1) == value(0, {"delta(4,1)": 1})
    assert entry(1, 4) == value(0, {"delta(4,1)": -1})


def test_product_delta_examples():
    p1 = projective_space(1)
    got = assemble_delta(LEDGER, p1, 4, 1)
    assert got == value(-1, {"delta(4,1)": 1})
    assert assemble_delta(LEDGER, HodgePolynomial.one(), 3, 0) == value(-1)
    with pytest.raises(ValueError, match="must have a symmetric table"):
        assemble_delta(LEDGER, H({(1, 0): 1}), 3, 0)
    # an untracked cell without its mirror may hide an asymmetry of the factor
    with pytest.raises(ValueError, match="must have a symmetric table"):
        assemble_delta(LEDGER, H({(0, 0): 1}, unknown={(1, 0)}), 2, 0)


def test_product_delta_against_direct_computation():
    rng = random.Random(15)
    for _ in range(40):
        h1 = H(
            {
                (rng.randint(0, 3), rng.randint(0, 3)): rng.randint(1, 3)
                for _ in range(rng.randint(1, 6))
            }
        )
        half = {
            (rng.randint(0, 2), rng.randint(0, 2)): rng.randint(1, 3)
            for _ in range(rng.randint(0, 4))
        }
        sym = {}
        for (a, b), c in half.items():
            sym[(a, b)] = sym.get((a, b), 0) + c
            sym[(b, a)] = sym.get((b, a), 0) + c
        h2 = H(sym)
        # the full ledger of h1: no entry the sum reads is opaque
        ledger = {(a, b): h1.coeff(a, b) - h1.coeff(b, a) for a in range(6) for b in range(a)}
        prod = product(h1, h2)
        for i in range(6):
            for j in range(6):
                if i == j:
                    continue
                want = prod.coeff(i, j) - prod.coeff(j, i)
                assert assemble_delta(ledger, h2, i, j) == value(want)


def test_special_fiber_fix_examples():
    fix = special_fiber_fix(-3)
    assert fix.l_factor == 2
    assert fix.symmetric and fix.closed_forms_ok
    fix0 = special_fiber_fix(-1)
    assert fix0.l_factor == 0
    assert fix0.symmetric and fix0.closed_forms_ok
    with pytest.raises(ValueError, match=r"only to delta\^\{3,0\} < 0"):
        special_fiber_fix(0)
    with pytest.raises(ValueError, match=r"only to delta\^\{3,0\} < 0"):
        special_fiber_fix(2)


def test_special_fiber_fix_range():
    for d30 in range(-10, 0):
        fix = special_fiber_fix(d30)
        assert fix.l_factor == -d30 - 1
        assert fix.composed_delta30 == 0  # = d30 + l + 1
        assert fix.closed_forms_ok
    # with a realistic edge having nonzero symmetric degree-2 entries
    edge = {(0, 0): 1, (2, 0): 2, (0, 2): 2, (0, 3): 1}
    fix = special_fiber_fix(-1, edge=edge)
    assert fix.l_factor == 0 and fix.symmetric and fix.closed_forms_ok
    with pytest.raises(ValueError):
        special_fiber_fix(-1, edge={(0, 0): 1, (3, 0): 1})  # wrong delta
    with pytest.raises(ValueError):
        special_fiber_fix(-1, edge={(0, 0): 1, (0, 3): 1, (1, 0): 1})  # asymmetric


def test_special_fiber_fix_matches_stepwise_oracle():
    auxes = stepwise_fiber_aux(299)
    for d30 in range(-300, 0):
        l = -d30 - 1
        # the minimal edge, and the realistic one with degree-2 entries
        for edge in ({(0, 0): 1, (0, 3): -d30}, {(0, 0): 1, (2, 0): 2, (0, 2): 2, (0, 3): -d30}):
            composed = edge_product({(j, i): c for (i, j), c in edge.items()}, auxes[l])
            h30, h03 = composed.get((3, 0), 0), composed.get((0, 3), 0)
            want = SpecialFiberFix(l, h30, h03, h30 - h03, closed_forms_ok=True)
            assert special_fiber_fix(d30, edge=edge) == want
        assert special_fiber_fix(d30) == special_fiber_fix(d30, edge={(0, 0): 1, (0, 3): -d30})


def edge_pair(table: dict) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The x-edge and the y-edge of a table, each through degree 3."""
    return tuple(table.get((i, 0), 0) for i in range(4)), tuple(table.get((0, j), 0) for j in range(4))


def test_fiber_constants_are_the_edges_of_their_series():
    z_mod_p, mu_p = (dict(stack_series(kind, 3).coeffs) for kind in ("Z_mod_p", "mu_p"))
    aux = edge_product(z_mod_p, mu_p)
    assert aux == stepwise_fiber_aux(0)[0]
    assert edge_pair(aux) == _FIBER_AUX
    one = {(0, 0): 1}
    assert edge_pair(edge_product(one, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})) == _ELLIPTIC


def test_special_fiber_fix_ignores_edge_cells_in_the_ideal():
    auxes = stepwise_fiber_aux(11)
    # cells off the two edges or above degree 3, which edge_product drops
    ideal = {(1, 1): 5, (4, 0): 7, (0, 4): 2, (2, 1): 3, (1, 3): 1, (0, 7): 4, (9, 9): 6}
    for d30 in range(-12, 0):
        l = -d30 - 1
        for e2 in (0, 2):
            edge = {(0, 0): 1, (2, 0): e2, (0, 2): e2, (3, 0): 1, (0, 3): 1 - d30}
            with_ideal = {**edge, **ideal}
            composed = edge_product({(j, i): c for (i, j), c in with_ideal.items()}, auxes[l])
            h30, h03 = composed.get((3, 0), 0), composed.get((0, 3), 0)
            want = SpecialFiberFix(l, h30, h03, h30 - h03, closed_forms_ok=True)
            assert special_fiber_fix(d30, edge=with_ideal) == want
            assert special_fiber_fix(d30, edge=edge) == want


def test_polarization_examples():
    assert polarization_degree_search(2, 1, 2, 2) == 1
    assert polarization_value(2, 1, 2, 1) == 3
    assert polarization_degree_search(1, 1, 2, 2) == 0
    with pytest.raises(ValueError):
        polarization_degree_search(1, 0, 2, 2)


def test_polarization_search_property():
    rng = random.Random(29)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    for _ in range(500):
        p = rng.choice(primes)
        h_top = rng.randint(1, 10)
        k = rng.randint(1, 10)
        dim = rng.randint(1, 6)
        n = polarization_degree_search(h_top, k, dim, p)
        assert 0 <= n <= p
        assert polarization_value(h_top, k, dim, n) % p != 0


def test_weil_restriction_power():
    h = H({(0, 0): 1, (1, 0): 1, (0, 1): 1, (2, 0): 2, (0, 2): 2, (0, 3): 1})
    assert weil_restriction_power(h, 1) == h
    squared = weil_restriction_power(h, 2)
    # degree <= 2 symmetry makes the cross terms cancel in delta^{3,0}
    assert squared.coeff(3, 0) - squared.coeff(0, 3) == 2 * (h.coeff(3, 0) - h.coeff(0, 3))
    cubed = weil_restriction_power(h, 3)
    assert cubed.coeff(3, 0) - cubed.coeff(0, 3) == 3 * (h.coeff(3, 0) - h.coeff(0, 3))

    expr = weil_restriction_delta30(-1)
    assert dict(expr.opaque) == {"d_prime": DPoly.constant(-1)}
    for d_prime in range(1, 21):
        total = dict(expr.opaque)["d_prime"].eval_int(1) * d_prime
        assert total == -d_prime != 0


def test_coeff_unaffected_by_mutating_a_copy_of_the_table():
    h = HodgePolynomial.create({(1, 0): 2, (0, 1): 2})
    assert h.coeff(1, 0) == 2  # read before the copy is made
    table = dict(h.coeffs)
    table[(1, 0)] = 7
    table[(3, 3)] = 1
    assert h.coeff(1, 0) == 2 and h.coeff(3, 3) == 0
    assert dict(h.coeffs) == {(1, 0): 2, (0, 1): 2}
