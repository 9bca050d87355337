"""End-to-end construction certificates.

From a prime p and a target bidegree (i, j) this module drives the whole
machine: build the oriented character product, take G-invariants as the
quotient's Hodge data, pick the auxiliary projective factor whose product
moves the degree-3 asymmetry to (i, j), and assemble the resulting
asymmetry expression symbolically in the auxiliary size parameter d.  The
output is a ConstructionCertificate whose named checks must all pass for
the certificate to be emitted.
"""

from __future__ import annotations

from functools import lru_cache

from . import cmbuild
from .cmbuild import CMData, degree_slice
from .cyclochar import invariants_rank, exterior_power
from .hodgecalc import (
    DESCENT_SYMBOL,
    DeltaExpr,
    DPoly,
    HodgePolynomial,
    blow_up,
    iterated_blow_up,
    minimal_ambient_dims,
    opaque_symbol,
    polarization_degree_search,
    polarization_value,
    special_fiber_fix,
    weil_restriction_delta30,
)
from .record import Record

TOOL_VERSION = "1.0.0"
CERTIFICATE_SCHEMA = "hodge-asym/certificate/v1"
# largest target degree i + j accepted: on a 2-vCPU machine the slowest
# certificate at i + j = 400, (399,1), took 27 ms, most of it the hypersurface
# of dimension 396; the certificate with the most blow-ups, (201,199), took
# 4.5 ms (the tower's cost grows about as (i + j)^2, on int lists)
TARGET_DEGREE_CAP = 400
# entries kept by each of the two auxiliary-factor caches; the small-certs targets
# (i + j <= 20) reach 83 shapes, which together retain under 300 KB; one factor at
# the top of TARGET_DEGREE_CAP, symbolic_tower(397, 0), retains up to ~200 KB
SYMBOLIC_CACHE_SIZE = 128


class StructuralViolation(Exception):
    """An untracked d-dependent coefficient met a nonzero asymmetry entry."""


class CertificateFailure(Exception):
    """A certificate check failed; carries the failure report."""

    def __init__(self, report: dict):
        super().__init__("certificate checks failed")
        self.report = report


# ---------------------------------------------------------------------------
# symbolic auxiliary diamonds: known cells are polynomials in d, unknown
# cells vary with d in ways the bookkeeping never needs


def symbolic_hypersurface(n: int) -> HodgePolynomial:
    """Degree-d hypersurface of dimension n with d left formal.

    The extreme middle entries are C(d-1, n+1); for n <= 2 the whole middle
    row is polynomial in d (for n = 2 the interior entry is
    1 + C(2d-1,3) - 4*C(d,3)); interior middle cells for n >= 3 are marked
    unknown and may never pair with a nonzero asymmetry entry.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    known: dict[tuple[int, int], DPoly] = {}
    unknown: set[tuple[int, int]] = set()
    for a in range(n + 1):
        if 2 * a != n:
            known[(a, a)] = DPoly.constant(1)
    extreme = DPoly.binomial_linear(n + 1, 1, -1)
    known[(n, 0)] = extreme
    known[(0, n)] = extreme
    if n == 2:
        prim = DPoly.binomial_linear(3, 2, -1) - DPoly.binomial_linear(3, 1, 0) * 4
        known[(1, 1)] = DPoly.constant(1) + prim
    elif n >= 3:
        unknown.update((a, n - a) for a in range(1, n))
    return HodgePolynomial.create(known, unknown=unknown)


# The auxiliary factors depend only on the target's shape, never on p, l or the
# diamond, and are immutable, so each is built once per shape and then shared.


@lru_cache(maxsize=SYMBOLIC_CACHE_SIZE)
def symbolic_tower(n: int, s: int) -> HodgePolynomial:
    """The blow-up tower's diamond with the hypersurface degree left formal."""
    return iterated_blow_up(symbolic_hypersurface(n), n, s)


@lru_cache(maxsize=SYMBOLIC_CACHE_SIZE)
def symbolic_p1_power(max_r: int) -> HodgePolynomial:
    """Diagonal cells of the d-fold power of the projective line: h^{r,r} = C(d,r)."""
    cells = {(r, r): DPoly.binomial_linear(r, 1, 0) for r in range(max_r + 1)}
    return HodgePolynomial.create(cells)


def _ledger_entry(ledger: dict, a: int, b: int) -> tuple[int, str | None]:
    """delta^{a,b}(T) as coeff * symbol, or as the int coeff when symbol is None.

    The ledger holds pairs a > b, and delta^{b,a} = -delta^{a,b}.  The entry
    is 0 at a negative index or where a == b, and a pair the ledger does not
    hold is its opaque symbol.
    """
    if a < 0 or b < 0 or a == b:
        return 0, None
    sign, key = (1, (a, b)) if a > b else (-1, (b, a))
    if key in ledger:
        return sign * ledger[key], None
    return sign, opaque_symbol(*key)


def assemble_delta(ledger: dict, aux: HodgePolynomial, i: int, j: int) -> DeltaExpr:
    """Product asymmetry sum(delta^{i1,j1}(T) * h^{i2,j2}(Y)) over splittings.

    ``ledger`` maps pairs i1 > j1 to the exact delta^{i1,j1}(T), as
    QuotientData.ledger does; delta^{j1,i1} = -delta^{i1,j1}, and a pair
    it does not hold is the opaque symbol opaque_symbol(i1, j1).  The
    auxiliary diamond Y may have int cells (a concrete d) or DPoly cells
    (d left formal), and must be symmetric, or ValueError is raised.
    Unknown cells of Y must only meet exactly zero ledger entries; any
    other pairing raises StructuralViolation.
    """
    if not aux.is_symmetric():
        raise ValueError("the auxiliary factor must have a symmetric table")
    exact, opaque = DPoly(()), {}
    for (i2, j2), c in aux.coeffs:
        coeff, symbol = _ledger_entry(ledger, i - i2, j - j2)
        if symbol:
            opaque[symbol] = opaque.get(symbol, DPoly(())) + c * coeff
        elif coeff:
            exact += c * coeff
    for (i2, j2) in sorted(aux.unknown):
        coeff, symbol = _ledger_entry(ledger, i - i2, j - j2)
        if coeff:
            entry = f"{coeff}*{symbol}" if symbol else coeff
            raise StructuralViolation(f"untracked cell ({i2},{j2}) pairs with {entry}")
    return DeltaExpr.create(exact, opaque)


# ---------------------------------------------------------------------------
# quotient bookkeeping


class QuotientData(Record):
    """Low-degree Hodge data of the free-quotient object.

    Only the edge entries h^{i,0} and h^{0,i} for i <= 3 are transparent
    through the auxiliary free-action factor; everything else is opaque.
    """

    h_i0: tuple[int, int, int, int]
    h_0j: tuple[int, int, int, int]

    @property
    def delta30(self) -> int:
        return self.h_i0[3] - self.h_0j[3]

    @property
    def ledger(self) -> dict[tuple[int, int], int]:
        """The exact asymmetries delta^{i,j}, i > j, that the degree <= 3
        relations pin: degrees 1 and 2 are symmetric and
        delta^{2,1} = -3*delta^{3,0}.  Every other entry is opaque."""
        d30 = self.delta30
        return {(1, 0): 0, (2, 0): 0, (2, 1): -3 * d30, (3, 0): d30}

    def edge_dict(self) -> dict[tuple[int, int], int]:
        out = {(0, 0): self.h_i0[0]}
        for i in range(1, 4):
            out[(i, 0)] = self.h_i0[i]
            out[(0, i)] = self.h_0j[i]
        return out


def quotient_bookkeeping(z_diamond: HodgePolynomial) -> QuotientData:
    """Edge invariants of the quotient, which fix its degree <= 3 ledger.

    h^{i,0} and h^{0,i} of the quotient equal the invariant ranks recorded
    in the equivariant diamond for i <= 3.  The ledger assumes degrees 1
    and 2 symmetric, as it assumes delta^{2,1} = -3*delta^{3,0}; the
    certificate's degree1-symmetry and degree2-symmetry checks test that.
    """
    h_i0 = tuple([z_diamond.coeff(i, 0) for i in range(4)])
    h_0j = tuple([z_diamond.coeff(0, j) for j in range(4)])
    return QuotientData(h_i0=h_i0, h_0j=h_0j)


# ---------------------------------------------------------------------------
# the main pipeline


class AuxCase(Record):
    kind: str                      # "none" | "tower" | "p1_power"
    n: int | None = None
    s: int | None = None

    def serialize(self) -> dict:
        if self.kind == "tower":
            return {
                "kind": "tower",
                "n": self.n,
                "s": self.s,
                "ambient_dims": list(minimal_ambient_dims(self.n, self.s)),
            }
        return {"kind": self.kind}


def choose_aux_case(i: int, j: int) -> AuxCase:
    """Auxiliary factor moving the degree-3 asymmetry to (i, j), i > j.

    Towers satisfy n + 2s = i + j - 3, which confines every d-dependent
    coefficient of the auxiliary diamond to pairings with the exact
    degree-3 ledger entries.  The d-fold projective line handles the
    i - j in {1, 3} targets while its asymmetry sum keeps d-independent
    opaque coefficients, i.e. up to i + j = 5; beyond that those targets
    use the dimension-2 tower.
    """
    if i <= j or j < 0 or i + j < 3:
        raise ValueError(f"need i > j >= 0 and i + j >= 3 once ordered, got ({i},{j})")
    if i + j > TARGET_DEGREE_CAP:
        raise ValueError(
            f"target degree i+j={i + j} is above the cap TARGET_DEGREE_CAP={TARGET_DEGREE_CAP}"
        )
    if i + j == 3:
        return AuxCase("none")
    if i > j + 3:
        return AuxCase("tower", n=i - 3 - j, s=j)
    if i == j + 2:
        return AuxCase("tower", n=1, s=j - 1)
    # i - j is 1 or 3
    if i + j <= 5:
        return AuxCase("p1_power")
    return AuxCase("tower", n=2, s=(i + j - 5) // 2)


class ConstructionCertificate(Record):
    inputs: dict
    cm: CMData
    z_diamond: HodgePolynomial
    slice3_pre: tuple[int, ...]
    slice3: tuple[int, ...]
    quotient: QuotientData
    aux_case: AuxCase
    delta_result: DeltaExpr
    d_policy: dict
    checks: tuple[tuple[str, bool], ...]
    embellishments: dict

    def __post_init__(self):
        # a certificate exists only with every check passed
        if not self.all_passed():
            raise CertificateFailure(serialize_certificate(self))

    def all_passed(self) -> bool:
        return all(ok for _, ok in self.checks)


def _diamond_checks(
    diamond: HodgePolynomial, dim: int, isoclinic: bool
) -> list[tuple[str, bool]]:
    # sums[n] is the degree-n relation's sum over i + j = n of (i - j) * h^{i,j}, at
    # n = 1, 2 it is n * (h^{n,0} - h^{0,n}); coeffs is sorted, so a cell with i > top ends it
    top = max(2 * dim, 3) if isoclinic else 3
    sums = [0] * (top + 1)
    for (i, j), c in diamond.coeffs:
        if i > top:
            break
        if i + j <= top:
            sums[i + j] += (i - j) * c
    # coeffs is sorted and (i, j) -> (dim - i, dim - j) reverses that order, so
    # the table is dual exactly when, read from the back, it maps onto itself
    cells = diamond.coeffs
    dual_ok = all(
        ij == (dim - i, dim - j) and c == c_dual
        for (ij, c), ((i, j), c_dual) in zip(cells, reversed(cells))
    )
    checks = [
        ("degree1-symmetry", not sums[1]),
        ("degree2-symmetry", not sums[2]),
        *((f"degree-relation-n{n}", not sums[n]) for n in (1, 2, 3)),
        ("odd-degree-parity-n3", sum(degree_slice(diamond, 3)) % 2 == 0),
        ("antidiagonal-duality", dual_ok),
    ]
    if isoclinic:
        # every isoclinic slope is 3/2 in degree 3: the Newton polygon is the chord
        # from (0,0) to (rank, 3/2*rank), which ends where the Hodge polygon ends exactly
        # when sums[3] = 0, and then lies above it, as the Hodge polygon is convex
        checks += [
            ("isoclinic-th-all-degrees", not any(sums[: 2 * dim + 1])),
            ("newton-endpoint-degree3", not sums[3]),
            ("newton-above-hodge-degree3", not sums[3]),
        ]
    return checks


EMBELLISHMENTS = ("special-fiber", "polarization")


def build_certificate(
    p: int, i: int, j: int, l: int | None = None, selector: str = "default", embellishments=()
) -> ConstructionCertificate:
    """Certificate for an object with h^{i,j} != h^{j,i}, with its embellishments.

    The auxiliary factor is chosen for the ordered pair; a transposed target
    takes its sign from the ledger, where delta^{j,i} = -delta^{i,j}.  The
    embellishments are attached in EMBELLISHMENTS order, each once; an
    unknown name, or special-fiber on a target other than (3,0), is refused
    before any work.
    """
    big, small = max(i, j), min(i, j)
    aux = choose_aux_case(big, small)
    # unknown names sort last, in the order given
    names = sorted(set(embellishments), key=(*EMBELLISHMENTS, *embellishments).index)
    for which in names:
        if which not in EMBELLISHMENTS:
            raise ValueError(f"unknown embellishment {which!r}")
        if which == "special-fiber" and (i, j) != (3, 0):
            raise ValueError("special-fiber fix applies only to the (3,0) target")

    z = cmbuild.build_cm(p, l=l, selector=selector)
    diamond = cmbuild.equivariant_diamond(z)
    slice3, slice3_pre = cmbuild.degree3_slices(z, diamond)
    quot = quotient_bookkeeping(diamond)

    ledger = quot.ledger
    if aux.kind == "none":
        expr = weil_restriction_delta30(_ledger_entry(ledger, i, j)[0])
        opaque = dict(expr.opaque)
        ok = (
            not expr.exact
            and list(opaque) == [DESCENT_SYMBOL]
            and opaque[DESCENT_SYMBOL].is_constant()
            and bool(opaque[DESCENT_SYMBOL])
        )
        closing = [("delta-descent-form", ok)]
        d_policy = {
            "kind": "descent-degree",
            "statement": "nonzero for every positive descent degree d_prime",
        }
    else:
        factor = symbolic_tower(aux.n, aux.s) if aux.kind == "tower" else symbolic_p1_power(small)
        expr = assemble_delta(ledger, factor, i, j)
        closing = [
            ("delta-nonconstant-in-d", expr.exact.degree >= 1),
            ("opaque-coeffs-d-independent", expr.opaque_coeffs_d_independent()),
        ]
        # the target's own opaque symbol delta(i,j) meets h^{0,0}(Y) = 1, so
        # expr.opaque is never empty: the policy bounds the exceptional d
        k = expr.max_exception_count()
        d_policy = {
            "kind": "all-but-finitely-many",
            "max_exceptions": k,
            "statement": f"nonzero for all but at most {k} integer values of d",
            "exact_d_part": expr.exact.display(),
        }

    checks = [
        ("search-inequality", z.search.r0 != z.search.r1),
        (
            "orientation-strict",
            invariants_rank(exterior_power(z.W_omega, 3))
            < invariants_rank(exterior_power(z.W_o, 3)),
        ),
        ("delta30-negative", quot.delta30 < 0),
        ("ledger-degree3-relation", ledger[(2, 1)] == -3 * ledger[(3, 0)]),
        *_diamond_checks(diamond, z.dim, z.isoclinic()),
        *closing,
    ]
    records = {}
    for which in names:
        key, record, extra = embellish(which, p, z, diamond, quot)
        records[key] = record
        checks += extra

    return ConstructionCertificate(
        inputs={
            "p": p,
            "i": i,
            "j": j,
            "l": l,
            "selector": selector,
            "max_layers": cmbuild.MAX_LAYERS,
            "bound": cmbuild.FIND_L_BOUND,
            "embellish": names,
        },
        cm=z,
        z_diamond=diamond,
        slice3_pre=slice3_pre,
        slice3=slice3,
        quotient=quot,
        aux_case=aux,
        delta_result=expr,
        d_policy=d_policy,
        checks=tuple(checks),
        embellishments=records,
    )


def embellish(
    which: str, p: int, z: CMData, diamond: HodgePolynomial, quot: QuotientData
) -> tuple[str, dict, list[tuple[str, bool]]]:
    """The key, record and checks of a special-fiber symmetrization or a
    prime-to-p polarization; build_certificate has refused any other name."""
    if which == "special-fiber":
        fix = special_fiber_fix(quot.delta30, edge=quot.edge_dict())
        record = {
            "l_factor": fix.l_factor,
            "composed_h30": fix.composed_h30,
            "composed_h03": fix.composed_h03,
            "composed_delta30": fix.composed_delta30,
            # the auxiliary factor has no generic one-forms in degrees <= 3,
            # so the generic-fiber asymmetry is untouched
            "generic_delta30_unchanged": True,
        }
        return "special_fiber", record, [
            ("special-fiber-series", fix.closed_forms_ok and fix.symmetric)
        ]
    h_top, k, dim = 1, 1, 2 * z.dim
    n = polarization_degree_search(h_top, k, dim, p)
    value = polarization_value(h_top, k, dim, n)
    blown = blow_up(diamond, HodgePolynomial.one(), z.dim - 1)
    # a point blow-up adds cells (t, t) only: every other cell must stay
    offdiag_ok = [cell for cell in blown.coeffs if cell[0][0] != cell[0][1]] == [
        cell for cell in diamond.coeffs if cell[0][0] != cell[0][1]
    ]
    record = {
        "h_top": h_top,
        "k": k,
        "dim": dim,
        "n": n,
        "value": value,
        "value_mod_p": value % p,
    }
    return "polarization", record, [
        ("polarization-prime-to-p", value % p != 0),
        ("polarization-offdiagonal-invariance", offdiag_ok),
    ]


# ---------------------------------------------------------------------------
# serialization (certificates are byte-deterministic JSON)


def serialize_certificate(cert: ConstructionCertificate) -> dict:
    z = cert.cm
    return {
        "schema": CERTIFICATE_SCHEMA,
        "version": TOOL_VERSION,
        "inputs": dict(cert.inputs),
        "prime_context": {"p": z.ctx.p, "l": z.ctx.l, "ord": z.ctx.ord},
        "cm": z.serialize(),
        "z_diamond": {
            "dim": z.dim,
            "coeffs": [[i, j, c] for (i, j), c in cert.z_diamond.coeffs],
        },
        "degree3_slice_pre_orientation": list(cert.slice3_pre),
        "degree3_slice": list(cert.slice3),
        "x_edge": {"h_i0": list(cert.quotient.h_i0), "h_0j": list(cert.quotient.h_0j)},
        "ledger_exact": [[i, j, v] for (i, j), v in cert.quotient.ledger.items()],
        "aux_case": cert.aux_case.serialize(),
        "delta_result": {
            "variable": DESCENT_SYMBOL if cert.aux_case.kind == "none" else "d",
            **cert.delta_result.serialize(),
            "display": cert.delta_result.display(),
        },
        "d_policy": dict(cert.d_policy),
        "embellishments": dict(cert.embellishments),
        "checks": [{"name": name, "passed": ok} for name, ok in cert.checks],
    }
