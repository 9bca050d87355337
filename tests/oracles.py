"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive (full enumeration) and shares no code
path with the implementations it checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from hodge_asym.cmbuild import degree_slice
from hodge_asym.cyclochar import CharRep
from hodge_asym.hodgecalc import blow_up, check_table_cost, minimal_ambient_dims, projective_space
from hodge_asym.polygons import degree_relation


def subset_exterior(v: CharRep, k: int) -> CharRep:
    """Exterior power by enumerating all k-element index subsets."""
    exps = v.exponents()
    mults: dict[int, int] = {}
    for combo in itertools.combinations(range(len(exps)), k):
        e = sum(exps[t] for t in combo) % v.l
        mults[e] = mults.get(e, 0) + 1
    return CharRep.from_dict(v.l, mults)


def pair_tensor(v: CharRep, w: CharRep) -> CharRep:
    """Tensor product by enumerating all exponent pairs."""
    mults: dict[int, int] = {}
    for a in v.exponents():
        for b in w.exponents():
            e = (a + b) % v.l
            mults[e] = mults.get(e, 0) + 1
    return CharRep.from_dict(v.l, mults)


def lattice_middle_row(d: int, n: int, p: int) -> int:
    """Middle-row primitive Hodge number by full tuple enumeration."""
    target = d * (n + 1 - p)
    return sum(
        1
        for tup in itertools.product(range(1, d), repeat=n + 2)
        if sum(tup) == target
    )


def typical_by_partition(u: CharRep) -> bool:
    """Typicality by searching for an actual partition into valid layers.

    Backtracking over layers, each layer being a set of (l-1)/2 exponents
    avoiding both members of any inverse pair.  Exponential; only for small
    inputs.
    """
    l = u.l
    if u.mult[0] != 0:
        return False
    half = (l - 1) // 2
    if u.rank % half:
        return False
    d = u.rank // half

    def peel(remaining: dict[int, int], layers: int) -> bool:
        if layers == 0:
            return all(m == 0 for m in remaining.values())
        pairs = [(a, l - a) for a in range(1, half + 1)]

        def choose(idx: int, current: dict[int, int]) -> bool:
            if idx == len(pairs):
                return peel(current, layers - 1)
            a, b = pairs[idx]
            for pick in (a, b):
                if current.get(pick, 0) > 0:
                    current[pick] -= 1
                    if choose(idx + 1, current):
                        current[pick] += 1
                        return True
                    current[pick] += 1
            return False

        return choose(0, dict(remaining))

    return peel(u.as_dict(), d)


def naive_table_product(a: dict, b: dict, bound: int | None = None) -> dict:
    """Coefficient convolution of two {(i,j): c} tables, optionally truncated."""
    out: dict[tuple[int, int], int] = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            i, j = i1 + i2, j1 + j2
            if bound is None or i + j <= bound:
                out[(i, j)] = out.get((i, j), 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def edge_product(a: dict, b: dict) -> dict:
    """a * b modulo (xy, x^4, y^4): only the diamond's degree <= 3 edges survive."""
    return {(i, j): c for (i, j), c in naive_table_product(a, b, 3).items() if i == 0 or j == 0}


def stepwise_fiber_aux(l_max: int) -> list[dict]:
    """The special fibre's auxiliary edges (1/(1-y)) * ((1+x)/(1-xy)) *
    (1+x+y+xy)^l for l = 0..l_max, multiplied in one elliptic factor at a time."""
    z_mod_p = {(0, k): 1 for k in range(4)}
    mu_p = {(0, 0): 1, (1, 0): 1, (1, 1): 1, (2, 1): 1}
    elliptic = {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    auxes = [edge_product(z_mod_p, mu_p)]
    for _ in range(l_max):
        auxes.append(edge_product(auxes[-1], elliptic))
    return auxes


def stepwise_blow_up_tower(h, n: int, s: int, ambient_dims=None):
    """hodgecalc.iterated_blow_up as it was before its closed form: one full
    blow_up of N_t-space along the previous stage per stage, with the same
    refusals in the same order."""
    if s < 0:
        raise ValueError("s must be non-negative")
    top = n + 2 * s if ambient_dims is None else max((n, *ambient_dims))
    check_table_cost((top + 1) ** 2, f"blow-up tower of dimension {top}")
    if ambient_dims is None:
        ambient_dims = minimal_ambient_dims(n, s)
    if len(ambient_dims) != s:
        raise ValueError(f"need exactly {s} ambient dimensions")
    cur_dim = n
    for big_n in ambient_dims:
        r = big_n - cur_dim - 1
        if r < 1:
            raise ValueError(
                f"ambient dimension {big_n} must exceed current dimension {cur_dim} + 1"
            )
        h = blow_up(projective_space(big_n), h, r)
        cur_dim = big_n
    return h


def triple_invariants(exps_a: list[int], exps_b: list[int], l: int, *, wedge_a: int) -> int:
    """rk(Lambda^{wedge_a} A x Lambda^{3-wedge_a} B)^G by direct enumeration."""
    total = 0
    for ca in itertools.combinations(range(len(exps_a)), wedge_a):
        sa = sum(exps_a[t] for t in ca)
        for cb in itertools.combinations(range(len(exps_b)), 3 - wedge_a):
            if (sa + sum(exps_b[t] for t in cb)) % l == 0:
                total += 1
    return total


def dot_product_diamond(p_tab, q_tab) -> dict:
    """{(i, j): sum_e P_i[e] * Q_j[-e]} over two exterior tables, cell by cell."""
    l = len(p_tab[0])
    out: dict[tuple[int, int], int] = {}
    for i, p_row in enumerate(p_tab):
        for j, q_row in enumerate(q_tab):
            c = sum(p_row[e] * q_row[-e % l] for e in range(l))
            if c:
                out[(i, j)] = c
    return out


def slicewise_degree_relations(diamond, dim: int) -> bool:
    """The isoclinic-th-all-degrees check as first written: the degree relation
    of every slice n <= 2*dim, each slice read cell by cell."""
    return all(degree_relation(degree_slice(diamond, n)) for n in range(2 * dim + 1))


def lookup_antidiagonal_duality(diamond, dim: int) -> bool:
    """The antidiagonal-duality check as first written: look up the dual of every cell."""
    return all(diamond.coeff(dim - i, dim - j) == c for (i, j), c in diamond.coeffs)


def polygon_ordinates(slopes: dict) -> list[Fraction]:
    """Ordinates at every integer abscissa of the convex polygon from (0,0)
    with the given {slope: multiplicity}, each multiplicity expanded."""
    expanded = sorted(Fraction(s) for s, m in slopes.items() for _ in range(m))
    return [Fraction(0), *itertools.accumulate(expanded)]


def expanded_newton_above_hodge(hodge, newton: dict) -> bool:
    """Newton polygon on or above the Hodge polygon (h^{n,0}, ..., h^{0,n}),
    ends equal, compared at every integer abscissa."""
    n = len(hodge) - 1
    newt = polygon_ordinates(newton)
    hodg = polygon_ordinates({i: hodge[n - i] for i in range(n + 1)})
    return newt[-1] == hodg[-1] and all(a >= b for a, b in zip(newt, hodg))


def subgroup_coset_V(ctx, selector: str) -> CharRep:
    """V as one coset of H = <p^2> per Frobenius orbit a<p> = aH + apH, with
    a the orbit's smallest residue: aH for "default", apH for "alt"."""
    l, p = ctx.l, ctx.p
    group, x = {1}, p * p % l
    while x != 1:
        group.add(x)
        x = x * p * p % l
    chosen: list[int] = []
    seen: set[int] = set()
    for a in range(1, l):
        if a in seen:
            continue
        even = {a * h % l for h in group}
        odd = {a * p * h % l for h in group}
        seen |= even | odd
        chosen += even if selector == "default" else odd
    return CharRep.from_exponents(l, chosen)


def stepwise_order(a: int, l: int) -> int:
    """Smallest k >= 1 with a^k = 1 mod l, by stepping through the powers."""
    k, x = 1, a % l
    while x != 1:
        x = x * a % l
        k += 1
    return k


@dataclass(frozen=True)
class FractionDPoly:
    """The Fraction-coefficient DPoly that hodgecalc.DPoly replaced, kept as its
    reference: one Fraction per coefficient, every operation on Fractions."""

    coeffs: tuple[Fraction, ...]  # ascending powers, no trailing zeros

    @staticmethod
    def create(coeffs) -> "FractionDPoly":
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return FractionDPoly(tuple(cs))

    @staticmethod
    def constant(c) -> "FractionDPoly":
        return FractionDPoly.create([c])

    @staticmethod
    def zero() -> "FractionDPoly":
        return FractionDPoly(())

    @staticmethod
    def binomial(k: int, shift: int = 0) -> "FractionDPoly":
        """C(d + shift, k) expanded as a polynomial in d."""
        return FractionDPoly.binomial_linear(k, 1, shift)

    @staticmethod
    def binomial_linear(k: int, a: int, b: int) -> "FractionDPoly":
        """C(a*d + b, k) expanded as a polynomial in d."""
        if k < 0:
            raise ValueError("k must be non-negative")
        out = FractionDPoly.constant(1)
        for t in range(k):
            out = out * FractionDPoly.create([b - t, a])
        return out * FractionDPoly.constant(Fraction(1, factorial(k)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "FractionDPoly | int") -> "FractionDPoly":
        if isinstance(other, int):
            other = FractionDPoly.constant(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return FractionDPoly.create(
            [
                (self.coeffs[t] if t < len(self.coeffs) else 0)
                + (other.coeffs[t] if t < len(other.coeffs) else 0)
                for t in range(n)
            ]
        )

    __radd__ = __add__

    def __neg__(self) -> "FractionDPoly":
        return FractionDPoly.create([-c for c in self.coeffs])

    def __sub__(self, other: "FractionDPoly") -> "FractionDPoly":
        return self + (-other)

    def __mul__(self, other: "FractionDPoly") -> "FractionDPoly":
        if self.is_zero() or other.is_zero():
            return FractionDPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for a, ca in enumerate(self.coeffs):
            for b, cb in enumerate(other.coeffs):
                out[a + b] += ca * cb
        return FractionDPoly.create(out)

    def scale(self, c) -> "FractionDPoly":
        return self * FractionDPoly.constant(c)

    def eval(self, d: int) -> Fraction:
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * d + c
        return total

    def eval_int(self, d: int) -> int:
        v = self.eval(d)
        if v.denominator != 1:
            raise ValueError(f"non-integer value {v} at d={d}")
        return v.numerator

    def serialize(self) -> list:
        """Ascending coefficients; integers plain, other rationals as 'num/den'."""
        return [
            c.numerator if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
            for c in self.coeffs
        ]

    @staticmethod
    def deserialize(items) -> "FractionDPoly":
        return FractionDPoly.create([Fraction(str(c)) for c in items])

    def display(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for t in range(self.degree, -1, -1):
            c = self.coeffs[t]
            if c == 0:
                continue
            mag = abs(c)
            mono = "" if t == 0 else ("d" if t == 1 else f"d^{t}")
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = (first_sign if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text
