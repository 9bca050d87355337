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
    field_words,
    frobenius_twist,
    invariants_rank,
    is_prime,
    is_typical,
    multiplicative_order,
    pack_fields,
    unpack_fields,
)
from .hodgecalc import HodgePolynomial
from .record import Record


class EqualRanks(Exception):
    """Assembly received a pair with equal degree-3 invariant ranks."""


SELECTORS = ("default", "alt")
FIND_L_BOUND = 1000
MAX_LAYERS = 3  # layer counts search_typical_U tries; every admissible input stops at layer 1
SEARCH_TABLE_CAP = 100_000  # candidates search_table lists at most
# largest diamond cost estimate dim^2 * l that build_cm accepts: on a 2-vCPU
# machine the diamond took 0.10 s at l=157 (dim 156, 3.8e6), 0.16 s at l=173
DIAMOND_COST_CAP = 4_000_000
# largest walk cost estimate l*(l-1)/2 that a candidate walk accepts: its
# starting modules and first prefix rotate packed rows once per exponent and
# inverse pair, O(l^2) in all; on a 2-vCPU machine (min of 3, p=3) the typical
# search took 0.08 s at l=2801 (3.9e6), and the walk to its first candidate
# 0.27 s at l=5009 (1.3e7)
WALK_COST_CAP = 4_000_000


def find_l(p: int) -> PrimeContext:
    """Smallest prime l, l != p, with ord(p mod l) divisible by 4.

    Equivalently l divides some p^{2r} + 1; such primes exist for every p,
    and check_p admits only p <= P_CAP, for which l <= 97 (tests/sweep_classes.py).
    """
    check_p(p)
    for l in range(5, FIND_L_BOUND + 1):
        if l == p or not is_prime(l):
            continue
        if multiplicative_order(p, l) % 4 == 0:
            return PrimeContext.create(p, l)
    raise AssertionError("unreachable: tests/sweep_classes.py finds l <= 97 for every p <= P_CAP")


def _p_orbits(ctx: PrimeContext) -> list[list[int]]:
    """Orbits of multiplication by p on (Z/l)^x by minimum a, each listed a, ap, ap^2, ..."""
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
        orbits.append(orbit)
    return orbits


def build_V(ctx: PrimeContext, selector: str = "default") -> CharRep:
    """Half of each Frobenius orbit a, ap, ap^2, ..., multiplicity one.

    "default" takes the even places, the coset aH of H = <p^2> with a the
    orbit's minimum, "alt" the odd places apH.  -1 = p^(ord/2) lies in H as
    4 | ord, so the result is self-dual, and p swaps the two halves, so it
    is disjoint from its twist.
    """
    if selector not in SELECTORS:
        raise ValueError(f"selector must be one of {SELECTORS}")
    start = 0 if selector == "default" else 1
    chosen: list[int] = []
    for orbit in _p_orbits(ctx):
        chosen += orbit[start::2]
    return CharRep.from_exponents(ctx.l, chosen)


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
    for orbit in _p_orbits(ctx):
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


class TypicalSearchResult(Record):
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
    raise ValueError(f"no asymmetric typical U with at most MAX_LAYERS={MAX_LAYERS} layers")


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


def _times_power(w1: int, w2: int, w3: int, m: int, shifts, bits: int, mask: int, field: int):
    """A module's packed rows W_1, W_2 and invariant count W_3[0] of
    Lambda^1..Lambda^3 times (1 + t x^a)^m, a != 0, with Lambda^0 the
    constant 1, by the binomial theorem truncated at t^3:

        W_1 + m x^a
        W_2 + m x^a W_1 + C(m,2) x^2a
        W_3[0] + m W_2[-a] + C(m,2) W_1[-2a]

    The last is field 0 of W_3 + m x^a W_2 + C(m,2) x^2a W_1 + C(m,3) x^3a,
    the only field of Lambda^3 the walk reads: x^3a never reaches exponent 0
    for a prime l >= 5.  shifts holds the bit offsets (s1, s2) of exponents a
    and 2a in the bits-bit rows, so x^a rotates by s1 and W_i[-ja] sits at
    bits - s_j.  Each value is updated from the old ones, with one rotation
    per factor whatever m is."""
    s1, s2 = shifts
    x1 = ((w1 << s1) | (w1 >> (bits - s1))) & mask  # x^a W_1
    m2 = m * (m - 1) // 2
    return (
        w1 + (m << s1),
        w2 + m * x1 + (m2 << s2),
        w3 + m * ((w2 >> (bits - s1)) & field) + m2 * ((w1 >> (bits - s2)) & field),
    )


def _pair_products(triples, pairs, c: int, shifts, bits: int, mask: int, field: int):
    """Yield (digits, products) for every digit tuple over the inverse pairs
    {a, l-a}, a in pairs, the last pair changing fastest: each module triple
    times, per pair, (1 + t x^a)^(c-b) (1 + t x^-a)^b by _times_power.
    stack[k] holds the products over the first k pairs, so a tuple extends
    only the pairs after those it shares with the previous tuple."""
    n = len(pairs)
    stack = [triples] + [None] * n
    prev = (-1,) * n
    for digits in itertools.product(range(c + 1), repeat=n):
        start = 0
        while start < n and digits[start] == prev[start]:
            start += 1
        prev = digits
        for k in range(start, n):
            a, big = pairs[k], digits[k]
            out = []
            for t in stack[k]:
                if big < c:
                    t = _times_power(*t, c - big, shifts[a], bits, mask, field)
                if big:
                    t = _times_power(*t, big, shifts[-a], bits, mask, field)
                out.append(t)
            stack[k + 1] = out
        yield digits, stack[n]


def candidate_walk(v: CharRep, ctx: PrimeContext, layer_count: int):
    """Yield (U, r0, r1) for every typical U with layer_count layers, in
    candidate order, where (r0, r1) are the degree3_ranks of module_pair(V, U).

    Pairs {a, l-a} are ordered by a, the last pair changing fastest; a
    candidate's digit b for a pair puts c - b at a and b at l - a, so the
    first candidate takes the smaller member everywhere.  A module and its
    dual have the same invariant ranks, and (tau(V) + U*)* = tau(V)* + U, so
    r1 is read off tau(V)* + U, which takes U's factors in the same order as
    V + U.  A module is carried as the triple (W_1, W_2, W_3[0]) of packed
    Lambda^1 and Lambda^2 rows and the invariant count of Lambda^3 (Lambda^0
    is the constant 1, and no other field of Lambda^3 is ever read).  It
    starts from its trivial character's (m0, C(m0,2), C(m0,3)), and each
    other factor (1 + t x^e)^m multiplies the triple by _times_power, the
    binomial theorem truncated at t^3, with the bit offsets of e and 2e
    computed once per walk.

    U splits into a prefix, its first h - k pairs, h = (l-1)/2, and a block,
    its last k = max(1, (l-1)//4) pairs.  _pair_products walks V and
    tau(V)* over the prefixes.  The (c+1)^k block products B, from the empty
    triple (0, 0, 0), are built as the first prefix reaches them and kept
    for the others.  Candidate W + B has the Lambda^3 invariant count

        r = W_3[0] + B_3[0] + [x^0] (W_2 B_1 + W_1 B_2)

    B_1 lives on the block's exponents E = h-k+1..h+k, and B_2 on E + E,
    the exponents D = -(2k-1)..2k-1 mod l.  As E = -E and D = -D, [x^0]
    pairs B_1 with W_2's fields on E only, and B_2 with W_1's on D only.
    Each row is cut to its window, E or D, lowest exponent in field 0; the
    window's exponents are distinct, 4k - 1 < l.  Then [x^0] W_2 B_1 is
    field 2k-1 of the product of the packed ints and [x^0] W_1 B_2 is field
    4k-2, so W_2's window is raised by 2k-1 fields.  V's products fill fields
    0..8k-4, so tau(V)*'s windows sit 8k-3 fields above V's: one sum of two
    products holds V's count in field 4k-2 and tau(V)*'s in field 12k-5.

    A module reaches rank at most R = rank(V) + c h, so a product field
    holds at most c C(R,2) + C(kc,2) R: W_2's fields sum to at most C(R,2)
    against B_1 entries at most c, and W_1's to at most R against B_2
    entries at most C(kc,2).  A row's own fields hold at most C(R,2) + R.
    Refuses l < 5, which no PrimeContext admits and where 3a = 0 would add a
    Lambda^0 term.
    """
    l, c = ctx.l, layer_count
    if l < 5:
        raise ValueError(f"the candidate walk needs l >= 5, got l={l}")
    half = (l - 1) // 2
    k = max(1, (l - 1) // 4)
    r = v.rank + c * half
    width = max(comb(r + 1, 2), c * comb(r, 2) + comb(k * c, 2) * r).bit_length()
    field = (1 << width) - 1
    bits = l * width
    mask = (1 << bits) - 1
    # the bit offsets of exponents e and 2e
    shifts = [(e * width, 2 * e % l * width) for e in range(l)]
    near, low = (2 * k - 1) * width, (half - k + 1) * width
    on_d, on_e = (1 << (4 * k - 1) * width) - 1, (1 << 2 * k * width) - 1
    up = (8 * k - 3) * width  # tau(V)*'s windows above V's
    read = (4 * k - 2) * width
    read_o = up + read

    def around_zero(row: int) -> int:  # D's fields, from -(2k-1) up
        return ((row << near) | (row >> (bits - near))) & on_d

    def on_block(row: int) -> int:  # E's fields, from h-k+1 up
        return (row >> low) & on_e

    def from_empty(f: int):
        # V with every exponent times f: tau(V)* is f = -p
        m0 = v.mult[0]
        triple = (m0, comb(m0, 2), comb(m0, 3))
        for e in range(1, l):
            if v.mult[e]:
                triple = _times_power(*triple, v.mult[e], shifts[f * e % l], bits, mask, field)
        return triple

    def first_blocks():
        for digits, [(b1, b2, b3)] in _pair_products(
                [(0, 0, 0)], range(half - k + 1, half + 1), c, shifts, bits, mask, field):
            mid = (*map(sub, repeat(c, k), digits), *digits[::-1])
            entry = (mid, on_block(b1), around_zero(b2), b3)
            blocks.append(entry)
            yield entry

    blocks = []
    starts = [from_empty(1), from_empty(-ctx.p)]
    for digits, [(w1, w2, w3), (o1, o2, o3)] in _pair_products(
            starts, range(1, half - k + 1), c, shifts, bits, mask, field):
        head = (0, *map(sub, repeat(c, half - k), digits))
        tail = digits[::-1]
        p1 = around_zero(w1) | around_zero(o1) << up
        p2 = (on_block(w2) | on_block(o2) << up) << near
        for mid, b1, b2, b3 in blocks or first_blocks():
            x = p2 * b1 + p1 * b2
            yield (
                CharRep(l, head + mid + tail),
                w3 + b3 + ((x >> read) & field),
                o3 + b3 + ((x >> read_o) & field),
            )


class CMData(Record):
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


def equivariant_diamond(z: CMData, top: int | None = None) -> HodgePolynomial:
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
    dropped, so the table is built without HodgePolynomial.create.  ``top``
    keeps only the cells with i, j <= top (default: every cell).
    """
    l = z.ctx.l
    p_tab = exterior_table(z.W_omega, top)
    q_tab = exterior_table(z.W_o, top)
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

    Refuses a diamond cost dim^2 * l above DIAMOND_COST_CAP before V is built:
    dim = l - 1 before the search, as V and the first layer, where the search
    stops for every class the cap admits (tests/test_cmbuild.py), each have
    rank (l-1)/2.  The cap admits only l <= 157, far under WALK_COST_CAP.
    """
    ctx = PrimeContext.create(p, l) if l is not None else find_l(p)
    dim = ctx.l - 1
    if dim * dim * ctx.l > DIAMOND_COST_CAP:
        raise ValueError(
            f"diamond cost dim^2*l = {dim}^2*{ctx.l} is above the cap "
            f"DIAMOND_COST_CAP={DIAMOND_COST_CAP}"
        )
    v = build_V(ctx, selector)
    return assemble_Z(v, search_typical_U(v, ctx), ctx)
