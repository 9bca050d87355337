"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All tolerances are exact (integer/rational equality) except the two
wall-clock budgets, which are asserted as stated.
"""

import io
import json
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction
from math import comb

from hodge_asym import cli, cmbuild, pipeline, polygons
from hodge_asym.cyclochar import (
    CharRep,
    exterior_power,
    invariants_rank,
    is_prime,
)
from hodge_asym.hodgecalc import (
    DPoly,
    hypersurface,
    polarization_degree_search,
    polarization_value,
    special_fiber_fix,
)
from oracles import lattice_middle_row, subset_exterior


def _ok(n, text):
    print(f"ACCEPTANCE criterion-{n}: PASS - {text}")


def _run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def test_criterion_1_paper_value_reproduction():
    timings = []
    for p in (2, 3, 7, 13):
        t0 = time.monotonic()
        code, out = _run_cli("construct", "--p", str(p), "--i", "3", "--j", "0")
        elapsed = time.monotonic() - t0
        timings.append(elapsed)
        assert code == 0
        cert = json.loads(out)
        assert cert["prime_context"]["l"] == 5
        assert cert["degree3_slice_pre_orientation"] in [[0, 5, 2, 1], [1, 2, 5, 0]]
        ledger = {(i, j): v for i, j, v in cert["ledger_exact"]}
        assert ledger[(3, 0)] == -1  # post-orientation delta^{3,0}(X') = -1
        assert elapsed < 1.0, f"p={p} took {elapsed:.3f}s"
    _ok(1, f"p in (2,3,7,13) all l=5, slice ok, delta30=-1; max {max(timings):.3f}s")


def test_criterion_2_weak_admissibility_endpoint():
    cert = pipeline.build_certificate(2, 3, 0)
    slice3 = cert.slice3
    rank = sum(slice3)
    pd = polygons.PolygonData.create(3, slice3, {Fraction(3, 2): rank})
    assert polygons.t_H(pd) == 12
    assert polygons.t_N(dict(pd.newton)) == 12
    assert polygons.check_degree_relation(pd)
    assert polygons.newton_above_hodge(pd)
    _ok(2, "t_H = t_N = 12 with Newton {3/2: 8}; degree relation and polygon check pass")


def test_criterion_3_oracle_equivalence():
    rng = random.Random(20260810)
    t0 = time.monotonic()
    for trial in range(200):
        l = rng.choice([5, 13, 17])
        rank = rng.randint(0, 8)
        v = CharRep.from_exponents(l, [rng.randrange(l) for _ in range(rank)])
        k = rng.randint(0, 4)
        lam = exterior_power(v, k)
        assert lam == subset_exterior(v, k)
        assert invariants_rank(lam) == invariants_rank(subset_exterior(v, k))
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _ok(3, f"200 randomized reps match the enumeration oracles in {elapsed:.2f}s")


def test_criterion_4_typical_search_table():
    ctx = cmbuild.PrimeContext.create(2, 5)
    v = cmbuild.build_V(ctx)
    rows = cmbuild.search_table(v, ctx, 1)
    assert len(rows) == 4
    from hodge_asym.cyclochar import dual, frobenius_twist

    for u, r0, r1 in rows:
        assert (r0, r1) in [(0, 1), (1, 0)]
        # brute-force recomputation of the full row
        w1 = CharRep.from_exponents(5, v.exponents() + u.exponents())
        w2 = CharRep.from_exponents(
            5, frobenius_twist(v, 2).exponents() + dual(u).exponents()
        )
        assert r0 == invariants_rank(subset_exterior(w1, 3))
        assert r1 == invariants_rank(subset_exterior(w2, 3))
    _ok(4, "all 4 single-layer candidates have (r0,r1) in {(0,1),(1,0)}, oracle-matched")


def test_criterion_5_hypersurface_formulas():
    for d in range(1, 11):
        for n in range(1, 6):
            assert hypersurface(d, n).coeff(n, 0) == comb(d - 1, n + 1)
    q = hypersurface(4, 2)
    assert (q.coeff(2, 0), q.coeff(1, 1), q.coeff(0, 2)) == (1, 20, 1)
    assert q.coeff(1, 1) == lattice_middle_row(4, 2, 1) + 1
    c = hypersurface(3, 2)
    assert c.coeff(1, 1) == 7 == lattice_middle_row(3, 2, 1) + 1
    quintic = hypersurface(5, 2)
    assert quintic.coeff(1, 1) == 45 == lattice_middle_row(5, 2, 1) + 1
    _ok(5, "h^{n,0} binomial identity (d<=10, n<=5); middle rows (1,20,1), 7, 45 oracle-matched")


def test_criterion_6_product_coefficients():
    cert42 = pipeline.build_certificate(2, 4, 2)
    # d-part identically equal to -2 * delta30 * C(d-1, 2) as a polynomial
    assert cert42.delta_result.exact == DPoly.binomial_linear(2, 1, -1) * (-2 * -1)
    cert41 = pipeline.build_certificate(2, 4, 1)
    assert cert41.delta_result.exact == DPoly((0, -1))  # d-coeff = delta30
    checked = 0
    for total in range(3, 9):
        for i in range(total // 2 + 1, total + 1):
            j = total - i
            if i == j or j < 0:
                continue
            expr = pipeline.build_certificate(2, i, j).delta_result
            if total == 3:
                assert [s for s, _ in expr.opaque] == ["d_prime"]
                coeff = dict(expr.opaque)["d_prime"]
                assert coeff.is_constant() and coeff
                assert not expr.exact
            else:
                assert expr.exact.degree >= 1, (i, j)
                assert expr.opaque_coeffs_d_independent(), (i, j)
            checked += 1
    _ok(6, f"(4,2) and (4,1) coefficients exact; {checked} targets structurally sound")


def test_criterion_7_special_fiber():
    for d30 in range(-1, -11, -1):
        fix = special_fiber_fix(d30)
        assert fix.l_factor == -d30 - 1
        # the recomputed series reproduce delta + l + 1 exactly (here: zero)
        assert fix.composed_h03 - fix.composed_h30 == -(d30 + fix.l_factor + 1)
        assert fix.composed_delta30 == 0
        assert fix.closed_forms_ok and fix.symmetric
    _ok(7, "synthetic delta in -1..-10: l = -delta-1, series symmetric, closed forms ok")


def test_criterion_8_polarization_search():
    primes = [p for p in range(2, 98) if is_prime(p)]
    count = 0
    for p in primes:
        for k in range(1, 11):
            for h_top in range(1, 11):
                for dim in range(2, 7):
                    n = polarization_degree_search(h_top, k, dim, p)
                    assert n <= p
                    assert polarization_value(h_top, k, dim, n) % p != 0
                    count += 1
    _ok(8, f"{count} exhaustive draws: n <= p and top self-intersection prime to p")


def test_criterion_9_diamond_dualities():
    certs = [pipeline.build_certificate(p, 3, 0) for p in (2, 3, 7, 13, 11)]
    for cert in certs:
        diamond = cert.z_diamond
        dim = cert.cm.dim
        table = dict(diamond.coeffs)
        for (i, j), c in table.items():
            assert table.get((dim - i, dim - j), 0) == c
        assert diamond.coeff(1, 0) == diamond.coeff(0, 1)
        assert diamond.coeff(2, 0) == diamond.coeff(0, 2)
        if cert.cm.isoclinic():
            for n in range(2 * dim + 1):
                sl = cmbuild.degree_slice(diamond, n)
                th = sum((n - t) * sl[t] for t in range(n + 1))
                assert 2 * th == n * sum(sl)
    _ok(9, f"{len(certs)} diamonds pass anti-diagonal duality and isoclinic endpoints")


def test_criterion_10_determinism_and_round_trip():
    code, out = _run_cli("golden")
    assert code == 0, out
    files = sorted(cli.GOLDEN_DIR.glob("*.json"))
    assert len(files) >= 6
    tags = {(json.loads(f.read_text())["inputs"]["p"],
             json.loads(f.read_text())["inputs"]["i"],
             json.loads(f.read_text())["inputs"]["j"]) for f in files}
    for p in (2, 3):
        for target in ((3, 0), (4, 2), (4, 1)):
            assert (p, *target) in tags
    for f in files:
        text = f.read_text()
        assert cli.dumps(json.loads(text)) == text  # byte-identical round trip
    _ok(10, f"golden corpus of {len(files)} certificates regenerates byte-identically")
