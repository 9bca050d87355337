import json

import pytest

from hodge_asym import cmbuild, pipeline
from hodge_asym.hodgecalc import (
    DeltaExpr,
    DPoly,
    HodgePolynomial,
    blow_up_tower,
    projective_space,
)
from hodge_asym.pipeline import (
    CertificateFailure,
    QuotientData,
    StructuralViolation,
    assemble_delta,
    choose_aux_case,
    quotient_bookkeeping,
    serialize_certificate,
    symbolic_hypersurface,
    symbolic_p1_power,
    symbolic_tower,
    build_certificate,
)
from sweep_classes import classes, diamond_checks

H = HodgePolynomial.create


def p2_diamond():
    z = cmbuild.build_cm(2)
    return cmbuild.equivariant_diamond(z)


def test_quotient_bookkeeping_p2():
    quot = quotient_bookkeeping(p2_diamond())
    assert quot.h_i0 == (1, 0, 2, 0)
    assert quot.h_0j == (1, 0, 2, 1)
    assert quot.delta30 == -1
    assert quot.ledger == {(1, 0): 0, (2, 0): 0, (2, 1): 3, (3, 0): -1}


def test_quotient_bookkeeping_symmetric_input():
    sym = H({(0, 0): 1, (3, 0): 2, (0, 3): 2, (2, 0): 1, (0, 2): 1})
    quot = quotient_bookkeeping(sym)
    assert quot.delta30 == 0
    # every tracked (degree <= 3) ledger entry is exactly zero
    assert quot.ledger == {(1, 0): 0, (2, 0): 0, (2, 1): 0, (3, 0): 0}


def test_symbolic_hypersurface_matches_concrete():
    from hodge_asym.hodgecalc import hypersurface

    for n in (1, 2, 3, 4):
        sym = symbolic_hypersurface(n)
        for d in (1, 2, 3, 4, 5, 7):
            concrete = hypersurface(d, n)
            for (i, j), poly in sym.coeffs:
                assert poly.eval_int(d) == concrete.coeff(i, j), (n, d, i, j)
            for (i, j), c in dict(concrete.coeffs).items():
                if (i, j) not in dict(sym.coeffs):
                    assert (i, j) in sym.unknown


def test_symbolic_tower_matches_concrete():
    for n, s in [(1, 0), (1, 1), (2, 1), (1, 2), (3, 1)]:
        sym = symbolic_tower(n, s)
        for d in (2, 3, 5):
            concrete = blow_up_tower(d, n, s)
            for (i, j), poly in sym.coeffs:
                assert poly.eval_int(d) == concrete.coeff(i, j), (n, s, d, i, j)
            for (i, j), c in dict(concrete.coeffs).items():
                if (i, j) not in dict(sym.coeffs):
                    assert (i, j) in sym.unknown


def test_choose_aux_case():
    assert choose_aux_case(3, 0).kind == "none"
    assert choose_aux_case(2, 1).kind == "none"
    for i, j, n, s in [(4, 0, 1, 0), (5, 0, 2, 0), (6, 1, 2, 1), (8, 0, 5, 0)]:
        aux = choose_aux_case(i, j)
        assert (aux.kind, aux.n, aux.s) == ("tower", n, s)
    for i, j, s in [(3, 1, 0), (4, 2, 1), (5, 3, 2)]:
        aux = choose_aux_case(i, j)
        assert (aux.kind, aux.n, aux.s) == ("tower", 1, s)
    assert choose_aux_case(4, 1).kind == "p1_power"
    assert choose_aux_case(3, 2).kind == "p1_power"
    for i, j in [(5, 2), (4, 3)]:
        aux = choose_aux_case(i, j)
        assert (aux.kind, aux.n, aux.s) == ("tower", 2, 1)
    with pytest.raises(ValueError, match=r"need i > j >= 0 and i \+ j >= 3"):
        choose_aux_case(1, 1)
    with pytest.raises(ValueError, match=r"need i > j >= 0 and i \+ j >= 3"):
        choose_aux_case(2, 0)


def test_build_certificate_degree3():
    cert = build_certificate(2, 3, 0)
    assert cert.slice3 == (0, 5, 2, 1)
    assert cert.aux_case.kind == "none"
    expr = cert.delta_result
    assert not expr.exact
    assert dict(expr.opaque) == {"d_prime": DPoly.constant(-1)}
    assert cert.all_passed()

    cert21 = build_certificate(2, 2, 1)
    assert dict(cert21.delta_result.opaque) == {"d_prime": DPoly.constant(3)}


def test_build_certificate_42():
    cert = build_certificate(2, 4, 2)
    assert cert.aux_case.serialize() == {
        "kind": "tower", "n": 1, "s": 1, "ambient_dims": [3],
    }
    expr = cert.delta_result
    # -2 * delta30 * C(d-1, 2) with delta30 = -1, identically in d
    assert expr.exact == DPoly.binomial_linear(2, 1, -1) * 2 == DPoly.create([2, -3, 1])
    assert dict(expr.opaque) == {
        "delta(4,2)": DPoly.constant(1),
        "delta(3,1)": DPoly.constant(2),
    }


def test_build_certificate_41():
    cert = build_certificate(2, 4, 1)
    assert cert.aux_case.kind == "p1_power"
    expr = cert.delta_result
    assert expr.exact == DPoly.create([0, -1])  # the d-coefficient is delta30
    assert dict(expr.opaque) == {"delta(4,1)": DPoly.constant(1)}


def test_transpose_negate():
    for (i, j) in [(3, 0), (4, 2), (4, 1), (5, 2)]:
        a = build_certificate(2, i, j).delta_result
        b = build_certificate(2, j, i).delta_result
        assert b == DeltaExpr.create(-a.exact, {s: -c for s, c in a.opaque})


def test_structural_sweep():
    for total in range(4, 9):
        for i in range(total // 2 + 1, total + 1):
            j = total - i
            if i == j or j < 0:
                continue
            cert = build_certificate(2, i, j)
            expr = cert.delta_result
            assert expr.exact.degree >= 1, (i, j)
            assert expr.opaque_coeffs_d_independent(), (i, j)
            assert cert.all_passed()


def test_invalid_targets():
    for (i, j) in [(1, 1), (2, 2), (1, 0), (2, 0), (0, 2), (-1, 4)]:
        with pytest.raises(ValueError, match=r"need i > j >= 0 and i \+ j >= 3"):
            build_certificate(2, i, j)


def ledger_of(delta30: int) -> dict:
    """The degree <= 3 ledger of a quotient with the given delta^{3,0} < 0."""
    return QuotientData(h_i0=(1, 0, 0, 0), h_0j=(1, 0, 0, -delta30)).ledger


def test_assemble_delta_structural_guard():
    # an unknown cell meeting a nonzero entry must raise, not silently drop
    ledger = ledger_of(-1)
    sym = symbolic_hypersurface(3)  # unknown interior middle cells (1,2), (2,1)
    with pytest.raises(StructuralViolation, match=r"cell \(1,2\) pairs with -1$"):
        # cell (1,2) would pair with the exact nonzero delta(3,0)
        assemble_delta(ledger, sym, 4, 2)
    with pytest.raises(StructuralViolation, match=r"cell \(1,2\) pairs with 1\*delta\(4,0\)$"):
        # and with an opaque entry, which may be nonzero
        assemble_delta(ledger, sym, 5, 2)
    # but pairings where every unknown cell meets a zero entry are fine
    expr = assemble_delta(ledger, sym, 4, 1)
    assert expr.opaque_coeffs_d_independent()


def at(expr: DeltaExpr, d: int) -> DeltaExpr:
    """expr with the formal degree d set to a value."""
    return DeltaExpr.create(
        DPoly.constant(expr.exact.eval_int(d)),
        {s: DPoly.constant(p.eval_int(d)) for s, p in expr.opaque},
    )


def test_assemble_delta_symbolic_matches_concrete():
    # one sum for both kinds of auxiliary diamond: the symbolic one at d
    # equals the concrete one built at that d
    ledger = ledger_of(-2)
    cases = 0
    for total in range(4, 15):
        for j in range((total + 1) // 2):
            i = total - j
            aux = choose_aux_case(i, j)
            if aux.kind == "tower":
                symbolic = symbolic_tower(aux.n, aux.s)
            else:
                assert aux.kind == "p1_power", (i, j)
                symbolic = symbolic_p1_power(j)
            expr = assemble_delta(ledger, symbolic, i, j)
            for d in range(2, 7):
                if aux.kind == "tower":
                    concrete = blow_up_tower(d, aux.n, aux.s)
                else:
                    concrete = projective_space(1) ** d
                assert at(expr, d) == assemble_delta(ledger, concrete, i, j), (i, j, d)
                cases += 1
    assert cases == 260


def test_target_side_factors_through_delta30():
    # the class enters assemble_delta only through the ledger entries 0, 0,
    # -3*delta30 and delta30, so for each target the exact part is delta30 times
    # one polynomial and the opaque part does not see delta30: the target-side
    # checks then hold for every class with delta30 != 0 once they hold for one.
    # i + j = 3 has no factor (the pipeline descends instead); a point stands in
    targets = 0
    for total in range(3, 25):
        for j in range((total + 1) // 2):
            i = total - j
            aux = choose_aux_case(i, j)
            if aux.kind == "none":
                factor = HodgePolynomial.one()
            elif aux.kind == "tower":
                factor = symbolic_tower(aux.n, aux.s)
            else:
                factor = symbolic_p1_power(j)
            for a, b in ((i, j), (j, i)):
                unit_class, other_class = (
                    assemble_delta(ledger_of(delta30), factor, a, b) for delta30 in (-1, -7)
                )
                unit = -unit_class.exact  # the polynomial that delta30 multiplies
                assert unit.degree >= (0 if aux.kind == "none" else 1), (a, b)
                assert other_class.exact == unit * -7, (a, b)
                assert other_class.opaque == unit_class.opaque, (a, b)
                targets += 1
    assert targets == 2 * sum((total + 1) // 2 for total in range(3, 25)) == 308


def test_determinism_and_roundtrip():
    a = serialize_certificate(build_certificate(3, 4, 2))
    b = serialize_certificate(build_certificate(3, 4, 2))
    assert json.dumps(a) == json.dumps(b)
    parsed = json.loads(json.dumps(a, indent=2))
    assert parsed == a


def test_certificates_other_primes():
    for p in (3, 7, 13):
        cert = build_certificate(p, 3, 0)
        assert cert.cm.ctx.l == 5
        assert cert.slice3_pre in [(0, 5, 2, 1), (1, 2, 5, 0)]
        assert cert.quotient.delta30 == -1
        assert cert.all_passed()
    cert11 = build_certificate(11, 3, 0)
    assert cert11.cm.ctx.l == 13
    assert cert11.quotient.delta30 < 0
    assert cert11.all_passed()


def test_isoclinic_checks_present():
    cert = build_certificate(2, 3, 0)
    names = [name for name, _ in cert.checks]
    assert "isoclinic-th-all-degrees" in names
    assert "newton-endpoint-degree3" in names
    assert "newton-above-hodge-degree3" in names


def test_non_isoclinic_l17():
    # ord(2 mod 17) = 8 < 16: multiple Frobenius orbits, no forced slopes
    cert = build_certificate(2, 3, 0, l=17)
    assert not cert.cm.isoclinic()
    names = [name for name, _ in cert.checks]
    assert "isoclinic-th-all-degrees" not in names
    assert cert.all_passed()
    assert cert.slice3 == (29, 125, 95, 39)
    assert cert.quotient.delta30 == -10
    # the degree relation still holds on the invariant slices
    for n in (1, 2, 3):
        sl = cmbuild.degree_slice(cert.z_diamond, n)
        th = sum((n - t) * sl[t] for t in range(n + 1))
        assert 2 * th == n * sum(sl)


def test_embellish_special_fiber():
    out = build_certificate(2, 3, 0, embellishments=["special-fiber"])
    sf = out.embellishments["special_fiber"]
    assert sf["l_factor"] == 0  # delta30 = -1
    assert sf["composed_delta30"] == 0
    assert out.all_passed()
    with pytest.raises(ValueError, match=r"applies only to the \(3,0\) target"):
        build_certificate(2, 4, 2, embellishments=["special-fiber"])
    with pytest.raises(ValueError, match=r"applies only to the \(3,0\) target"):
        build_certificate(2, 0, 3, embellishments=["special-fiber"])
    with pytest.raises(ValueError, match="unknown embellishment 'unknown-embellishment'"):
        build_certificate(2, 3, 0, embellishments=["unknown-embellishment"])


def test_embellish_special_fiber_l17():
    # nontrivial elliptic-factor count through the real pipeline
    out = build_certificate(2, 3, 0, l=17, embellishments=["special-fiber"])
    sf = out.embellishments["special_fiber"]
    assert sf["l_factor"] == 9  # delta30 = -10
    assert sf["composed_delta30"] == 0
    assert out.all_passed()


def test_embellish_polarization():
    out = build_certificate(2, 4, 1, embellishments=["polarization"])
    pol = out.embellishments["polarization"]
    assert pol["value_mod_p"] != 0
    assert out.all_passed()


def test_polarization_fails_when_the_blow_up_moves_an_off_diagonal_cell(monkeypatch):
    real_blow_up = pipeline.blow_up

    def moving_blow_up(*args):
        cells = dict(real_blow_up(*args).coeffs)
        (a, b), c = next(cell for cell in cells.items() if cell[0][0] != cell[0][1])
        del cells[(a, b)]
        cells[(b, a)] = cells.get((b, a), 0) + c
        return HodgePolynomial.create(cells)

    monkeypatch.setattr(pipeline, "blow_up", moving_blow_up)
    with pytest.raises(CertificateFailure) as err:
        build_certificate(2, 4, 1, embellishments=["polarization"])
    failed = [c["name"] for c in err.value.report["checks"] if not c["passed"]]
    assert failed == ["polarization-offdiagonal-invariance"]


def test_construct_with_embellishments():
    # canonical order, each name once, whatever order and repeats were asked for
    cert = build_certificate(
        2, 3, 0, embellishments=("polarization", "special-fiber", "polarization")
    )
    assert list(cert.embellishments) == ["special_fiber", "polarization"]
    assert cert.inputs["embellish"] == ["special-fiber", "polarization"]
    assert [name for name, _ in cert.checks[-3:]] == [
        "special-fiber-series", "polarization-prime-to-p", "polarization-offdiagonal-invariance",
    ]
    assert cert.all_passed()
    # each embellishment adds its record and checks and changes nothing else
    plain = serialize_certificate(build_certificate(2, 3, 0))
    doc = serialize_certificate(cert)
    assert doc["checks"][: len(plain["checks"])] == plain["checks"]
    for key in ("inputs", "embellishments", "checks"):
        del plain[key], doc[key]
    assert doc == plain


def test_embellishments_are_refused_before_any_work(monkeypatch):
    # a refused name builds no V: the refusal comes right after the target's checks
    def refuse(*_, **__):
        raise AssertionError("build_cm reached")

    monkeypatch.setattr(cmbuild, "build_cm", refuse)
    for names, why in [
        (["bogus"], "unknown embellishment 'bogus'"),
        (["special-fiber"], "special-fiber fix applies only to the (3,0) target"),
        # canonical order: the special-fiber refusal comes before an unknown name's
        (["bogus", "special-fiber"], "special-fiber fix applies only to the (3,0) target"),
    ]:
        with pytest.raises(ValueError) as err:
            build_certificate(2, 4, 2, embellishments=names)
        assert str(err.value) == why


def test_symbolic_p1_power():
    sym = symbolic_p1_power(3)
    known = dict(sym.coeffs)
    assert known[(0, 0)] == DPoly.constant(1)
    assert known[(1, 1)] == DPoly.create([0, 1])
    assert known[(2, 2)] == DPoly.binomial_linear(2, 1, 0)
    assert not sym.unknown
    # matches the concrete d-fold power of the projective line
    for d in (1, 2, 3, 5):
        concrete = projective_space(1) ** d
        for (r, _), poly in sym.coeffs:
            assert poly.eval_int(d) == concrete.coeff(r, r)


def test_every_class_up_to_l61_passes_the_diamond_checks():
    # with l given the pipeline reads p only mod l, so one prime per residue with
    # 4 | ord covers every p; each class (l, p mod l, selector) has delta30 < 0 and
    # passes every diamond check (tests/sweep_classes.py runs every l <= 157)
    sample, moduli = [], set()
    for k, (ctx, selector) in enumerate(classes(61)):
        delta30, checks, _ = diamond_checks(ctx, selector)
        assert delta30 < 0, (ctx.p, ctx.l, selector)
        assert all(ok for _, ok in checks), (ctx.p, ctx.l, selector, checks)
        if k % 7 == 0 or ctx.l not in moduli:
            sample.append((ctx.p, ctx.l, selector))
            moduli.add(ctx.l)
    assert k + 1 == 280
    # a real certificate from a sample of the classes, every modulus among them:
    # construction raises unless every check passes
    assert len(sample) >= 40 and moduli == {5, 13, 17, 29, 37, 41, 53, 61}
    for p, l, selector in sample:
        build_certificate(p, 4, 2, l=l, selector=selector)


def test_one_class_per_l_and_ord_up_to_l157_passes_the_diamond_checks():
    # the diamond depends only on (l, ord(p mod l)): <p> and <p^2> are the only
    # subgroups of their orders in the cyclic (Z/l)^x, and the search stops at
    # U = {1, ..., (l-1)/2}; so one class per key reaches every admissible
    # diamond (DIAMOND_COST_CAP admits l <= 157), each with delta30 < 0
    keys = set()
    for ctx, selector in classes(157):
        if (ctx.l, ctx.ord) in keys:
            continue
        keys.add((ctx.l, ctx.ord))
        delta30, checks, _ = diamond_checks(ctx, selector)
        assert delta30 < 0, (ctx.p, ctx.l, selector)
        assert all(ok for _, ok in checks), (ctx.p, ctx.l, selector, checks)
    assert len(keys) == 62
