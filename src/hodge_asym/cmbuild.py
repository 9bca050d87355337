"""Character-level construction of the oriented abelian product with
asymmetric invariant ranks in degree 3.

Starting from a prime p this module finds the companion prime l, splits the
nonzero residues into Frobenius-orbit halves to get the self-dual rank
(l-1)/2 representation V carried by the formal factor, searches exhaustively
for a typical representation U making the degree-3 invariant ranks differ,
and assembles the two character modules W_omega = V + U (one-forms) and
W_o = tau(V) + U* (structure cohomology) together with the full equivariant
diamond h^{i,j} = rk(Lambda^i W_omega x Lambda^j W_o)^G.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import comb
from operator import mul, sub

from .cyclochar import (
    CharRep,
    PrimeContext,
    check_p,
    dual,
    exterior_power,
    exterior_table,
    extend_rows,
    field_width,
    field_words,
    frobenius_twist,
    invariants_rank,
    is_prime,
    is_typical,
    multiplicative_order,
    pack_fields,
    packed_rows,
    unpack_fields,
)
from .hodgecalc import HodgePolynomial


class NotFoundWithinBound(ValueError):
    """No companion prime l below the requested bound."""


class SearchExhausted(ValueError):
    """No typical U with asymmetric invariant ranks up to the layer limit."""


class EqualRanks(Exception):
    """Assembly received a pair with equal degree-3 invariant ranks."""


SELECTORS = ("default", "alt")
FIND_L_BOUND = 1000
MAX_LAYERS = 3  # layer counts search_typical_U tries; every admissible input stops at layer 1
SEARCH_TABLE_CAP = 100_000  # candidates search_table lists at most
# largest diamond cost estimate dim^2 * l that build_cm accepts: on a 2-vCPU
# machine the diamond took 0.40 s at l=157 (dim 156, 3.8e6), 0.64 s at l=173
DIAMOND_COST_CAP = 4_000_000
# largest walk cost estimate l*(l-1)/2 that a candidate walk accepts: its first
# prefix extends the packed rows over every inverse pair but the last, O(l^2)
# in all; the typical search, p=3, took 0.21 s at l=2801 (3.9e6) and 1.2 s at
# l=5009 (1.3e7)
WALK_COST_CAP = 4_000_000


def find_l(p: int, bound: int = FIND_L_BOUND) -> PrimeContext:
    """Smallest prime l <= bound, l != p, with ord(p mod l) divisible by 4.

    Equivalently l divides some p^{2r} + 1; such primes exist for every p,
    so the bound is only a search cutoff.
    """
    check_p(p)
    if bound < 5:
        raise ValueError("bound must be at least 5")
    for l in range(5, bound + 1):
        if l == p or not is_prime(l):
            continue
        if multiplicative_order(p, l) % 4 == 0:
            return PrimeContext.create(p, l)
    raise NotFoundWithinBound(f"no companion prime for p={p} up to {bound}")


def _p_cosets(ctx: PrimeContext) -> list[list[int]]:
    """Orbits of multiplication by p on the nonzero residues, sorted by minimum."""
    l, p = ctx.l, ctx.p
    seen: set[int] = set()
    orbits = []
    for a in range(1, l):
        if a in seen:
            continue
        orbit, x = [], a
        while x not in seen:
            seen.add(x)
            orbit.append(x)
            x = (x * p) % l
        orbits.append(sorted(orbit))
    return sorted(orbits)


def build_V(ctx: PrimeContext, selector: str = "default") -> CharRep:
    """One square-subgroup coset from each Frobenius orbit, multiplicity one.

    Each orbit of multiplication by p splits into the two cosets {C, pC} of
    the subgroup generated by p^2; "default" takes the coset containing the
    orbit's smallest residue, "alt" the other one.  The result is self-dual
    (since -1 is a square power of p) and disjoint from its twist.
    """
    if selector not in SELECTORS:
        raise ValueError(f"selector must be one of {SELECTORS}")
    l, p = ctx.l, ctx.p
    chosen: list[int] = []
    for orbit in _p_cosets(ctx):
        smallest = orbit[0]
        coset = sorted((smallest * h) % l for h in ctx.half_ord_group)
        if selector == "alt":
            coset = sorted((p * a) % l for a in coset)
        chosen.extend(coset)
    return CharRep.from_exponents(l, chosen)


def cm_type(u_layer: CharRep) -> frozenset[int]:
    """The embedding choice attached to a full-rank typical layer.

    One residue per inverse pair: a is selected exactly when the character
    with exponent -a appears in the layer, so the set and its negation
    partition the nonzero residues.
    """
    l = u_layer.l
    if not is_typical(u_layer):
        raise ValueError("layer must be typical")
    if u_layer.rank != (l - 1) // 2:
        raise ValueError(f"layer must have rank (l-1)/2 = {(l - 1) // 2}")
    return frozenset((-a) % l for a in u_layer.support())


def st_slopes(phi, ctx: PrimeContext) -> dict[Fraction, int]:
    """Frobenius slopes of the rank l-1 module attached to an embedding set.

    For each orbit O of multiplication by p on the nonzero residues the
    slope |phi and O| / |O| occurs with multiplicity |O|; the total slope
    mass is (l-1)/2 and the multiset is stable under s -> 1 - s.
    """
    l = ctx.l
    phi = frozenset(a % l for a in phi)
    neg = frozenset((-a) % l for a in phi)
    if 0 in phi or (phi | neg) != frozenset(range(1, l)) or phi & neg:
        raise ValueError("phi and -phi must partition the nonzero residues")
    slopes: dict[Fraction, int] = {}
    for orbit in _p_cosets(ctx):
        s = Fraction(len(phi.intersection(orbit)), len(orbit))
        slopes[s] = slopes.get(s, 0) + len(orbit)
    return slopes


def layer_digits(l: int, layer_count: int):
    """Per pair {a, l-a}, a = 1..(l-1)/2, the multiplicity of l - a; last pair fastest."""
    return itertools.product(range(layer_count + 1), repeat=(l - 1) // 2)


def split_layers(u: CharRep) -> list[CharRep]:
    """Decompose a typical representation into full-rank typical layers."""
    l = u.l
    if not is_typical(u):
        raise ValueError("not typical")
    d = u.mult[1] + u.mult[l - 1]
    layers = []
    for t in range(d):
        exps = []
        for a in range(1, (l + 1) // 2):
            exps.append(a if t < u.mult[a] else l - a)
        layers.append(CharRep.from_exponents(l, exps))
    return layers


def _direct_sum(a: CharRep, b: CharRep) -> CharRep:
    return CharRep(a.l, tuple([x + y for x, y in zip(a.mult, b.mult)]))


def module_pair(v: CharRep, u: CharRep, p: int) -> tuple[CharRep, CharRep]:
    """(W_omega, W_o) = (V + U, tau(V) + U*) before orientation."""
    return _direct_sum(v, u), _direct_sum(frobenius_twist(v, p), dual(u))


def degree3_ranks(w_omega: CharRep, w_o: CharRep) -> tuple[int, int]:
    """Invariant ranks of the two third exterior powers, computed directly:
    the reference for the ranks candidate_walk reads off its packed rows."""
    return (
        invariants_rank(exterior_power(w_omega, 3)),
        invariants_rank(exterior_power(w_o, 3)),
    )


@dataclass(frozen=True)
class TypicalSearchResult:
    U: CharRep
    r0: int
    r1: int
    layer_count: int
    candidate_index: int

    def serialize(self) -> dict:
        """The search record of certificates and build-cm reports."""
        return {
            "layer_count": self.layer_count,
            "candidate_index": self.candidate_index,
            "r0": self.r0,
            "r1": self.r1,
        }


def search_typical_U(v: CharRep, ctx: PrimeContext) -> TypicalSearchResult:
    """First typical U (by layer count, then candidate order) with r0 != r1.

    Existence is guaranteed for any self-dual V not isomorphic to its twist,
    but without an a-priori layer bound; the search tries MAX_LAYERS layer
    counts and names that limit on failure.
    """
    if dual(v) != v:
        raise ValueError("V must be self-dual")
    if frobenius_twist(v, ctx.p) == v:
        raise ValueError("V must differ from its twist")
    check_walk_cost(ctx.l)
    for layer_count in range(1, MAX_LAYERS + 1):
        for idx, (u, r0, r1) in enumerate(candidate_walk(v, ctx, layer_count)):
            if r0 != r1:
                return TypicalSearchResult(u, r0, r1, layer_count, idx)
    raise SearchExhausted(f"no asymmetric typical U with at most MAX_LAYERS={MAX_LAYERS} layers")


def check_walk_cost(l: int) -> None:
    """Refuse a modulus whose candidate walk costs more than WALK_COST_CAP."""
    if l * (l - 1) // 2 > WALK_COST_CAP:
        raise ValueError(
            f"candidate walk cost l*(l-1)/2 at l={l} is above the cap "
            f"WALK_COST_CAP={WALK_COST_CAP}"
        )


def table_size(l: int, layer_count: int) -> int:
    """(c+1)^((l-1)/2), the number of candidates with c layers; refuses a
    negative layer count, more than SEARCH_TABLE_CAP candidates and a walk
    above WALK_COST_CAP."""
    c, half = layer_count, (l - 1) // 2
    if c < 0:
        raise ValueError("layer count must be non-negative")
    check_walk_cost(l)
    # (c+1)^half >= 2^half once c >= 1, so a capped exponent decides the comparison
    if (c + 1) ** min(half, SEARCH_TABLE_CAP.bit_length()) > SEARCH_TABLE_CAP:
        raise ValueError(
            f"{c + 1}^{half} candidates exceed the cap SEARCH_TABLE_CAP={SEARCH_TABLE_CAP}"
        )
    return (c + 1) ** half


def search_table(v: CharRep, ctx: PrimeContext, layer_count: int = 1):
    """The rows of candidate_walk as a list, refused as table_size refuses."""
    table_size(ctx.l, layer_count)
    return list(candidate_walk(v, ctx, layer_count))


def candidate_walk(v: CharRep, ctx: PrimeContext, layer_count: int):
    """Yield (U, r0, r1) for every typical U with layer_count layers, in
    candidate order, where (r0, r1) are the degree3_ranks of module_pair(V, U).

    Pairs {a, l-a} are ordered by a, the last pair changing fastest; a
    candidate's digit b for a pair puts s = c - b at a and b at l - a (U* the
    reverse), so the first candidate takes the smaller member everywhere.
    One depth-first walk over the pairs but the last: stack[k] holds the
    packed Lambda^0..Lambda^3 rows W of V + U and tau(V) + U* over the first
    k pairs, so a prefix extends only the pairs after the one it shares with
    the previous prefix.  The last pair a = (l-1)/2 is read off its prefix's
    rows: with W_i[e] the field of exponent e in row i,

        r0 = W_3[0] + s W_2[-a] + b W_2[a]
             + C(s,2) W_1[-2a] + s b W_1[0] + C(b,2) W_1[2a]

    plus the Lambda^0 term C(s,3) + C(b,3) where 3a = 0 mod l (l = 3), and
    r1 the same on the tau(V) + U* rows with a and -a exchanged.  Six fields
    per module and prefix serve its c + 1 candidates.  One field width, for
    rank(V) + c(l-1)/2, serves every prefix.
    """
    l, c = ctx.l, layer_count
    half = (l - 1) // 2
    width = field_width(v.rank + c * half, 3)
    field = (1 << width) - 1
    w, o = packed_rows(v, 3, width), packed_rows(frobenius_twist(v, ctx.p), 3, width)
    if not half:  # l = 2: no pair, the one candidate is U = 0
        yield CharRep(l, (0,) * l), w[3] & field, o[3] & field
        return
    a = half
    # (row, bit offset) of W_3[0], W_2[a], W_2[-a], W_1[2a], W_1[-2a], W_1[0]
    six = [
        (i, e % l * width)
        for i, e in ((3, 0), (2, a), (2, -a), (1, 2 * a), (1, -2 * a), (1, 0))
    ]
    # (s, C(s,2), s b, C(b,2), the Lambda^0 term) of each leaf digit b
    leaves = [
        (c - b, comb(c - b, 2), (c - b) * b, comb(b, 2),
         comb(c - b, 3) + comb(b, 3) if 3 * a % l == 0 else 0)
        for b in range(c + 1)
    ]
    stack = [(w, o)] + [None] * (half - 1)
    mult = [0] * l
    prev = (-1,) * half
    for digits in layer_digits(l, c):
        b = digits[-1]
        if not b:  # a new prefix: extend the pairs after the shared one, read six fields
            start = 0
            while start < half - 1 and digits[start] == prev[start]:
                start += 1
            prev = digits
            for k in range(start, half - 1):
                e, big = k + 1, digits[k]
                mult[e] = small = c - big
                mult[l - e] = big
                w, o = stack[k]
                w, o = w[:], o[:]
                extend_rows(w, l, width, ((e, small), (l - e, big)))
                extend_rows(o, l, width, ((l - e, small), (e, big)))
                stack[k + 1] = (w, o)
            w, o = stack[half - 1]
            w3, w2p, w2m, w1p, w1m, w10 = [(w[i] >> t) & field for i, t in six]
            o3, o2p, o2m, o1p, o1m, o10 = [(o[i] >> t) & field for i, t in six]
        s, s2, sb, b2, t3 = leaves[b]
        mult[a], mult[l - a] = s, b
        yield (
            CharRep(l, tuple(mult)),
            w3 + s * w2m + b * w2p + s2 * w1m + sb * w10 + b2 * w1p + t3,
            o3 + s * o2p + b * o2m + s2 * o1p + sb * o10 + b2 * o1m + t3,
        )


@dataclass(frozen=True)
class CMData:
    """The assembled character data of the oriented product, with the
    typical search whose U it is built from."""

    ctx: PrimeContext
    V: CharRep
    search: TypicalSearchResult
    W_omega: CharRep
    W_o: CharRep
    oriented: bool

    @property
    def dim(self) -> int:
        return self.W_omega.rank

    def serialize(self) -> dict:
        """The cm record of certificates; build-cm reports pick their keys from it."""
        layers = split_layers(self.search.U)
        phis = [cm_type(layer) for layer in layers]
        return {
            "V": self.V.to_text(),
            "tau_V": frobenius_twist(self.V, self.ctx.p).to_text(),
            "U": self.search.U.to_text(),
            "U_layers": [u.to_text() for u in layers],
            "phi_per_layer": [sorted(phi) for phi in phis],
            "st_slopes_per_layer": [
                [[f"{s.numerator}/{s.denominator}", m] for s, m in sorted(slopes.items())]
                for slopes in (st_slopes(phi, self.ctx) for phi in phis)
            ],
            "W_omega": self.W_omega.to_text(),
            "W_o": self.W_o.to_text(),
            "oriented": self.oriented,
            "search": self.search.serialize(),
        }

    def isoclinic(self) -> bool:
        """Single Frobenius orbit on the nonzero residues: every slope is 1/2."""
        return self.ctx.ord == self.ctx.l - 1


def assemble_Z(v: CharRep, search: TypicalSearchResult, ctx: PrimeContext) -> CMData:
    """Form W_omega = V + U and W_o = tau(V) + U*, oriented so that the
    degree-3 invariant rank of the one-form side is strictly smaller.

    The ranks are the search's (r0, r1) for module_pair(V, U).  When the
    inequality initially points the other way the product is replaced by
    its dual (swap and dualize the two modules)."""
    if search.r0 == search.r1:
        raise EqualRanks("degree-3 invariant ranks coincide; search postcondition broken")
    w_omega, w_o = module_pair(v, search.U, ctx.p)
    oriented = search.r0 > search.r1
    if oriented:
        w_omega, w_o = dual(w_o), dual(w_omega)
    return CMData(ctx=ctx, V=v, search=search, W_omega=w_omega, W_o=w_o, oriented=oriented)


def equivariant_diamond(z: CMData) -> HodgePolynomial:
    """Invariant ranks h^{i,j} = rk(Lambda^i W_omega x Lambda^j W_o)^G.

    Computed as the constant-exponent coefficient of the product of the two
    subset generating functions, i.e. sum_e P_i[e] * Q_j[-e] where P and Q
    are the exterior_table rows of the two modules.  Each row is split at
    its floor: P_i = m_i + r_i and Q_j = n_j + s_j with m_i = min_e P_i[e],
    n_j = min_e Q_j[e], R_i = sum_e r_i[e] and S_j = sum_e s_j[e], so

        h^{i,j} = l*m_i*n_j + m_i*S_j + n_j*R_i + sum_e r_i[e] * s_j[-e],

    every term non-negative.  Only the residual sum is packed: col[e] holds
    s_j[-e] for every j, one field per j of the fewest 64-bit words that
    hold l * max r * max s, so no cell carries into the next.  Row i is the
    single sum of l multiply-adds sum_e r_i[e] * col[e], read at C speed by
    unpack_fields, and the floor terms are added per cell.  Every cell is
    computed, none is inferred from duality, so the duality check stays an
    independent test.  The cells come out in (i, j) order with the zeros
    dropped, so the table is built without HodgePolynomial.create.
    """
    l = z.ctx.l
    p_tab = exterior_table(z.W_omega)
    q_tab = exterior_table(z.W_o)
    m = list(map(min, p_tab))
    n = list(map(min, q_tab))
    r_rows = [list(map(sub, row, repeat(f))) for row, f in zip(p_tab, m)]
    flat: list[int] = []  # the residual rows s_j of W_o, one after another
    for row, f in zip(q_tab, n):
        flat += map(sub, row, repeat(f))
    words = field_words(l * max(map(max, r_rows)) * max(flat))
    cols = [pack_fields(flat[e::l], words) for e in range(l)]
    cols = cols[:1] + cols[:0:-1]  # col[e] packs the exponent -e of every row
    # l*m_i*n_j + m_i*S_j = m_i * |Q_j|, with |Q_j| = sum_e Q_j[e]
    q_sums = list(map(sum, q_tab))
    count = len(q_tab)
    cells = []
    for i, r_row in enumerate(r_rows):
        dots = unpack_fields(sum(map(mul, r_row, cols)), count, words)
        m_i, r_sum = m[i], sum(r_row)
        for j, (q_sum, n_j, dot) in enumerate(zip(q_sums, n, dots)):
            c = m_i * q_sum + r_sum * n_j + dot
            if c:
                cells.append(((i, j), c))
    return HodgePolynomial(tuple(cells))


def degree_slice(diamond: HodgePolynomial, n: int) -> tuple[int, ...]:
    """The degree-n slice (h^{n,0}, h^{n-1,1}, ..., h^{0,n})."""
    return tuple([diamond.coeff(n - t, t) for t in range(n + 1)])


def degree3_slices(z: CMData, diamond: HodgePolynomial) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The degree-3 slice and the slice before orientation, which is reversed
    when the assembly dualized the product."""
    slice3 = degree_slice(diamond, 3)
    return slice3, (tuple(reversed(slice3)) if z.oriented else slice3)


def build_cm(p: int, l: int | None = None, selector: str = "default") -> CMData:
    """End-to-end: companion prime, V, typical search, oriented assembly.

    Refuses a product whose diamond would cost dim^2 * l above
    DIAMOND_COST_CAP, before the assembly and the diamond.
    """
    ctx = PrimeContext.create(p, l) if l is not None else find_l(p)
    v = build_V(ctx, selector)
    result = search_typical_U(v, ctx)
    dim = v.rank + result.U.rank
    if dim * dim * ctx.l > DIAMOND_COST_CAP:
        raise ValueError(
            f"diamond cost dim^2*l = {dim}^2*{ctx.l} is above the cap "
            f"DIAMOND_COST_CAP={DIAMOND_COST_CAP}"
        )
    return assemble_Z(v, result, ctx)
