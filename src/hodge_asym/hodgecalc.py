"""Exact bivariate Hodge-polynomial and truncated-series algebra.

Coefficient tables h^{i,j} are finite maps (i,j) -> non-negative int, or
-> integer-valued polynomial in a formal degree d (DPoly) when the diamond
depends on d; one table type also carries truncated series and untracked
cells.  The polynomial H(x,y) = sum h^{i,j} x^i y^j multiplies by
convolution under products of varieties.  Alongside the tables this module
carries one expression type, DeltaExpr, for the Hodge asymmetries
delta^{i,j} = h^{i,j} - h^{j,i}: a polynomial in d whose coefficients
combine 1 with opaque symbols for asymmetries that are not known exactly.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, zip_longest
from math import comb, factorial, gcd, lcm
from operator import itemgetter, sub

from .record import Record


# largest estimated cost of a calculator table: (D+1)^2 for a table of top
# degree D, the grid its text rendering prints, which also bounds building a
# blow-up tower; a hypersurface adds (n+2)^3 * d^2 for its closed-form middle
# row, whose binomials grow with n and d (d = 10^300, n = 100 took 14-22 s on a
# 2-vCPU machine).  Printing a 1,000,000-cell grid there took 0.85 s
TABLE_COST_CAP = 500_000


def check_table_cost(cost: int, what: str) -> None:
    """Refuse a table whose estimated cost is above TABLE_COST_CAP."""
    if cost > TABLE_COST_CAP:
        raise ValueError(
            f"{what}: estimated cost {cost} is above the cap TABLE_COST_CAP={TABLE_COST_CAP}"
        )


# ---------------------------------------------------------------------------
# coefficient tables


class HodgePolynomial(Record):
    """Finitely supported table of Hodge numbers h^{i,j}.

    A cell is a non-negative int, or a DPoly when the table depends on a
    formal degree d; a table with any DPoly cell stores every cell as a DPoly.
    ``coeffs`` holds the nonzero tracked cells sorted by (i, j), and is the
    table's only index: coeff bisects it.
    ``bound`` truncates the table at total degree <= bound (a series), and
    ``unknown`` holds cells whose value is not tracked.
    """

    coeffs: tuple[tuple[tuple[int, int], int | DPoly], ...]
    bound: int | None = None
    unknown: frozenset[tuple[int, int]] = frozenset()

    @staticmethod
    def create(coeffs: dict, bound: int | None = None, unknown=()) -> "HodgePolynomial":
        if bound is not None and bound < 0:
            raise ValueError("bound must be non-negative")
        unknown = frozenset(unknown)
        symbolic = DPoly in set(map(type, coeffs.values()))
        # a symbolic table holds one DPoly per distinct value, shared by its equal cells
        shared: dict[DPoly, DPoly] = {}
        out: dict[tuple[int, int], int | DPoly] = {}
        for (i, j), c in coeffs.items():
            if i < 0 or j < 0:
                raise ValueError(f"negative bidegree ({i},{j})")
            if symbolic:
                c = c if type(c) is DPoly else DPoly.constant(c)
                c = shared.setdefault(c, c)
            elif c < 0:
                raise ValueError(f"negative coefficient {c} at ({i},{j})")
            if c:
                out[(i, j)] = c
        # filtered in a second pass so that plain tables pay nothing for it
        if unknown or bound is not None:
            out = {k: c for k, c in out.items()
                   if k not in unknown and (bound is None or k[0] + k[1] <= bound)}
        return HodgePolynomial(tuple(sorted(out.items())), bound, unknown)

    @staticmethod
    def one() -> "HodgePolynomial":
        return HodgePolynomial.create({(0, 0): 1})

    def coeff(self, i: int, j: int) -> int | DPoly:
        # ((i, j),) sorts just before the cell ((i, j), c), so bisect never compares cell values
        k = bisect_left(self.coeffs, ((i, j),))
        if k < len(self.coeffs) and self.coeffs[k][0] == (i, j):
            return self.coeffs[k][1]
        return 0

    def is_symmetric(self) -> bool:
        """h^{i,j} = h^{j,i} on every tracked cell, and the untracked cells
        are closed under (i, j) -> (j, i)."""
        # cells are sorted and nonzero, so a symmetric table is its own transpose re-sorted
        transposed = sorted([((j, i), c) for (i, j), c in self.coeffs], key=itemgetter(0))
        return tuple(transposed) == self.coeffs and all(
            (j, i) in self.unknown for (i, j) in self.unknown
        )

    def __mul__(self, other: "HodgePolynomial") -> "HodgePolynomial":
        return product(self, other)

    def __pow__(self, m: int) -> "HodgePolynomial":
        if m < 0:
            raise ValueError("negative power")
        out = HodgePolynomial.one()
        for _ in range(m):
            out = out * self
        return out


def product(h1: HodgePolynomial, h2: HodgePolynomial) -> HodgePolynomial:
    """Coefficient convolution, truncated at the smaller bound of a series factor.

    Each cell (i, j) is keyed by the int i*base + j, with base one more than
    the largest j of a product cell: 1 + (largest j of h1) + (largest j of
    h2).  Every product cell then has j < base, so the key of a sum is the
    sum of the keys, int order is (i, j) order, and divmod(key, base) gives
    the cell back.  base is only a stride between keys; nothing is sized by
    it or by a bidegree, so a cell at (10**9, 0) costs what any cell costs.

    Each cell of h1 meets only the prefix of h2's cells, sorted by total
    degree, that stays within the bound.  A product of valid tables is valid,
    so it is built without create; only the zero cells that symbolic cells can
    sum to are dropped.  A factor with untracked cells is refused.
    """
    if h1.unknown or h2.unknown:
        raise ValueError(
            f"product of tables with untracked cells {sorted(h1.unknown | h2.unknown)}"
        )
    bounds = [h.bound for h in (h1, h2) if h.bound is not None]
    bound = min(bounds, default=None)
    base = 1 + sum(max([j for (_, j), _ in h.coeffs], default=0) for h in (h1, h2))
    right = sorted(h2.coeffs, key=lambda cell: cell[0][0] + cell[0][1])
    degrees = [i + j for (i, j), _ in right]
    keyed = [(i * base + j, c) for (i, j), c in right]
    out: dict[int, int | DPoly] = {}
    get = out.get
    for (i1, j1), c1 in h1.coeffs:
        end = len(right) if bound is None else bisect_right(degrees, bound - i1 - j1)
        k1 = i1 * base + j1
        for k2, c2 in keyed[:end]:
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    cells = [(divmod(k, base), c) for k in sorted(out) if (c := out[k])]
    return HodgePolynomial(tuple(cells), bound)


# ---------------------------------------------------------------------------
# standard diamonds and constructions


def projective_space(n: int) -> HodgePolynomial:
    """Diamond of n-dimensional projective space: 1 + xy + ... + (xy)^n."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return HodgePolynomial.create({(a, a): 1 for a in range(n + 1)})


def blow_up(h_ambient: HodgePolynomial, h_center: HodgePolynomial, r: int) -> HodgePolynomial:
    """Blow-up along a center of codimension r+1 >= 2.

    H_ambient + H_center * (xy + (xy)^2 + ... + (xy)^r), exactly; the
    center's unknown cells are shifted the same way.
    """
    if r < 1:
        raise ValueError(f"codimension r+1 = {r + 1} must be at least 2")
    out = dict(h_ambient.coeffs)
    unknown = set(h_ambient.unknown)
    for t in range(1, r + 1):
        for (a, b), c in h_center.coeffs:
            out[(a + t, b + t)] = out.get((a + t, b + t), 0) + c
        unknown.update((a + t, b + t) for (a, b) in h_center.unknown)
    return HodgePolynomial.create(out, unknown=unknown)


def middle_row_count(d: int, n: int, p: int) -> int:
    """Primitive middle Hodge number of a degree-d hypersurface of dimension n.

    Counts integer tuples (a_0, ..., a_{n+1}) with 1 <= a_t <= d-1 and
    sum a_t = d*(n+1-p), the coefficient of x^{d(n+1-p)} in
    (x + ... + x^{d-1})^{n+2}: by inclusion-exclusion over the k entries
    above d-1, sum_k (-1)^k C(n+2, k) C(t - k(d-1), n+1) with
    t = d(n+1-p) - 1.  At p = n only k = 0 survives: C(d-1, n+1).
    """
    t = d * (n + 1 - p) - 1
    return sum(
        (-1) ** k * comb(n + 2, k) * comb(t - k * (d - 1), n + 1)
        for k in range(n + 3)
        if t >= k * (d - 1)
    )


def hypersurface(d: int, n: int) -> HodgePolynomial:
    """Full diamond of a smooth degree-d hypersurface in (n+1)-space.

    Off the middle row the diamond is that of the ambient projective space
    (h^{a,a} = 1 for 2a != n, zero elsewhere); the middle row is the
    primitive lattice-point count plus the non-primitive class at a = n/2.
    """
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    check_table_cost((n + 2) ** 3 * d * d + (n + 1) ** 2, f"hypersurface d={d}, n={n}")
    # the cells are positive and distinct, so the table needs no create, only (i, j) order
    cells = [((a, a), 1) for a in range(n + 1) if 2 * a != n]
    for p in range(n + 1):
        prim = middle_row_count(d, n, p)
        if 2 * p == n:
            cells.append(((p, p), prim + 1))
        elif prim:
            cells.append(((p, n - p), prim))
    cells.sort()
    return HodgePolynomial(tuple(cells))


def minimal_ambient_dims(n: int, s: int) -> tuple[int, ...]:
    """Ambient dimensions N_t = dim(Y_t) + 2, the smallest legal choice."""
    dims, cur = [], n
    for _ in range(s):
        dims.append(cur + 2)
        cur = cur + 2
    return tuple(dims)


def blow_up_tower(d: int, n: int, s: int, ambient_dims=None) -> HodgePolynomial:
    """Iterated blow-up of projective spaces along the previous stage.

    Y_0 is the degree-d hypersurface of dimension n; Y_{t+1} is the blow-up
    of N_t-space along Y_t (codimension N_t - dim Y_t >= 2).  The result
    decomposes as F(xy) + H_{Y_0}(x,y) * (xy)^s * G(xy).
    """
    return iterated_blow_up(hypersurface(d, n), n, s, ambient_dims)


def _times_run(a: list[int], r: int) -> list[int]:
    """The int polynomial a(z) * (z + ... + z^r), ascending coefficients.

    Coefficient k is the window sum a[k-r] + ... + a[k-1], a difference of
    prefix sums: prefix[min(k, len(a))] - prefix[max(k - r, 0)].
    """
    prefix = [0, *accumulate(a)]
    return list(map(sub, prefix + [prefix[-1]] * (r - 1), [0] * r + prefix[:-1]))


def iterated_blow_up(h: HodgePolynomial, n: int, s: int, ambient_dims=None) -> HodgePolynomial:
    """The tower of blow_up_tower over any n-dimensional base table h, in closed form.

    Stage t adds H_{Y_t} * (z + ... + z^{r_t}) to N_t-space, with z = xy and
    r_t = N_t - dim(Y_t) - 1.  Unrolled, Y_s = D(z) + H_{Y_0}(x,y) * M(z) with
    M = prod_t (z + ... + z^{r_t}) and D = sum_t P^{N_t}(z) * prod_{u > t} (z + ...
    + z^{r_u}), both int lists in z.  h's untracked cells shift by every exponent
    of M, and any cell they reach stays untracked, as it does stage by stage.
    """
    if s < 0:
        raise ValueError("s must be non-negative")
    top = n + 2 * s if ambient_dims is None else max((n, *ambient_dims))
    check_table_cost((top + 1) ** 2, f"blow-up tower of dimension {top}")
    if ambient_dims is None:
        ambient_dims = minimal_ambient_dims(n, s)
    if len(ambient_dims) != s:
        raise ValueError(f"need exactly {s} ambient dimensions")
    if not s:
        return h
    diag, mult, cur_dim = [], [1], n
    for big_n in ambient_dims:
        r = big_n - cur_dim - 1
        if r < 1:
            raise ValueError(
                f"ambient dimension {big_n} must exceed current dimension {cur_dim} + 1"
            )
        # D * (z + ... + z^r) has degree below N_t, so P^{N_t} spans the new D
        diag = _times_run(diag, r)
        diag = [c + 1 for c in diag] + [1] * (big_n + 1 - len(diag))
        mult = _times_run(mult, r)
        cur_dim = big_n
    out: dict[tuple[int, int], int | DPoly] = {(a, a): c for a, c in enumerate(diag) if c}
    get = out.get
    unknown = set()
    for e, m in enumerate(mult):
        if m:
            for (a, b), c in h.coeffs:
                k = (a + e, b + e)
                out[k] = get(k, 0) + m * c
            unknown.update((a + e, b + e) for a, b in h.unknown)
    return HodgePolynomial.create(out, unknown=unknown)


def stack_series(kind: str, bound: int = 12) -> HodgePolynomial:
    """Truncated classifying-stack series.

    mu_p:    (1+x)/(1-xy) = sum_k (x^k y^k + x^{k+1} y^k)
    Z_mod_p: 1/(1-y)      = sum_k y^k
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    check_table_cost((bound + 1) ** 2, f"series bound {bound}")
    # the cells are generated in (i, j) order and within the bound, so the
    # table needs no create
    if kind == "mu_p":
        cells = [((k + t, k), 1) for k in range(bound // 2 + 1) for t in (0, 1)
                 if 2 * k + t <= bound]
    elif kind == "Z_mod_p":
        cells = [((0, k), 1) for k in range(bound + 1)]
    else:
        raise ValueError(f"unknown stack kind {kind!r}")
    return HodgePolynomial(tuple(cells), bound)


# ---------------------------------------------------------------------------
# integer-valued polynomials in the formal parameter d


def _ratio(num: int, den: int) -> int | str:
    """num/den for a positive den, as str(Fraction(num, den)) writes it, or the
    int when den divides num."""
    g = gcd(num, den)
    return num // g if g == den else f"{num // g}/{den // g}"


class DPoly(Record):
    """Univariate polynomial in the product-size parameter d, exact coefficients.

    Integer numerators over one positive common denominator, in lowest terms,
    so equal polynomials have equal fields.
    """

    nums: tuple[int, ...]  # ascending powers, no trailing zeros
    den: int = 1

    @staticmethod
    def _reduced(nums: list[int], den: int) -> "DPoly":
        """The polynomial sum(nums[t] d^t) / den for a positive den, in lowest terms."""
        while nums and not nums[-1]:
            nums.pop()
        if den != 1:
            g = gcd(den, *nums)  # den itself when nums is empty
            if g != 1:
                nums = [c // g for c in nums]
                den //= g
        return DPoly(tuple(nums), den)

    @staticmethod
    def create(coeffs) -> "DPoly":
        cs = [c if type(c) is int else Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        return DPoly._reduced([c.numerator * (den // c.denominator) for c in cs], den)

    @staticmethod
    def constant(c) -> "DPoly":
        if type(c) is int:
            return DPoly((c,) if c else ())
        return DPoly.create([c])

    @staticmethod
    def binomial_linear(k: int, a: int, b: int) -> "DPoly":
        """C(a*d + b, k) expanded as a polynomial in d."""
        if k < 0:
            raise ValueError("k must be non-negative")
        nums = [1]
        for t in range(k):  # times (b - t) + a*d
            nums = [(b - t) * x + a * y for x, y in zip(nums + [0], [0] + nums)]
        return DPoly._reduced(nums, factorial(k))

    @property
    def degree(self) -> int:
        return len(self.nums) - 1  # -1 for the zero polynomial

    def is_constant(self) -> bool:
        return len(self.nums) <= 1

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __add__(self, other: "DPoly | int") -> "DPoly":
        if isinstance(other, int):
            other = DPoly.constant(other)
        if self.den == other.den:
            den, a, b = self.den, self.nums, other.nums
        else:
            den = lcm(self.den, other.den)
            a = [c * (den // self.den) for c in self.nums]
            b = [c * (den // other.den) for c in other.nums]
        return DPoly._reduced([x + y for x, y in zip_longest(a, b, fillvalue=0)], den)

    __radd__ = __add__

    def __neg__(self) -> "DPoly":
        return DPoly(tuple([-c for c in self.nums]), self.den)

    def __sub__(self, other: "DPoly") -> "DPoly":
        return self + (-other)

    def __mul__(self, other: "DPoly | int") -> "DPoly":
        if isinstance(other, int):
            return DPoly._reduced([c * other for c in self.nums], self.den)
        out = [0] * (len(self.nums) + len(other.nums) - 1)
        for a, ca in enumerate(self.nums):
            for b, cb in enumerate(other.nums):
                out[a + b] += ca * cb
        return DPoly._reduced(out, self.den * other.den)

    __rmul__ = __mul__

    def eval(self, d: int) -> Fraction:
        total = 0
        for c in reversed(self.nums):
            total = total * d + c
        return Fraction(total, self.den)

    def eval_int(self, d: int) -> int:
        v = self.eval(d)
        if v.denominator != 1:
            raise ValueError(f"non-integer value {v} at d={d}")
        return v.numerator

    @cached_property
    def _ratios(self) -> tuple[int | str, ...]:
        # each coefficient over den, reduced once for both serialize and display
        return tuple([_ratio(c, self.den) for c in self.nums])

    def serialize(self) -> list:
        """Ascending coefficients; integers plain, other rationals as 'num/den'."""
        return list(self._ratios)

    @staticmethod
    def deserialize(items) -> "DPoly":
        return DPoly.create([Fraction(str(c)) for c in items])

    def display(self) -> str:
        return self._text

    @cached_property
    def _text(self) -> str:
        # built once: a certificate prints its exact part in d_policy and delta_result
        if not self:
            return "0"
        ratios = self._ratios
        parts = []
        for t in range(self.degree, -1, -1):
            c = self.nums[t]
            if c == 0:
                continue
            ratio = ratios[t]
            mag = abs(ratio) if type(ratio) is int else ratio.lstrip("-")
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


# ---------------------------------------------------------------------------
# symbolic asymmetry expressions

DESCENT_SYMBOL = "d_prime"


def opaque_symbol(i: int, j: int) -> str:
    """Canonical name for the unknown asymmetry at (i,j), i > j."""
    return f"delta({i},{j})"


class DeltaExpr(Record):
    """Polynomial in d whose coefficients are combinations of 1 and opaque symbols."""

    exact: DPoly = DPoly(())
    opaque: tuple[tuple[str, DPoly], ...] = ()

    @staticmethod
    def create(exact: DPoly, opaque: dict[str, DPoly] | None = None) -> "DeltaExpr":
        cleaned = {s: p for s, p in (opaque or {}).items() if p}
        return DeltaExpr(exact, tuple(sorted(cleaned.items())))

    def opaque_coeffs_d_independent(self) -> bool:
        return all(p.is_constant() for _, p in self.opaque)

    def max_exception_count(self) -> int:
        """Bound on the integer values of d where the expression can vanish.

        Valid whenever the opaque coefficients are d-independent: for any
        assignment of the opaque symbols the expression is the exact part
        plus a constant, hence has at most deg(exact) roots.
        """
        return max(self.exact.degree, 0)

    def serialize(self) -> dict:
        return {
            "exact": self.exact.serialize(),
            "opaque": {s: p.serialize() for s, p in self.opaque},
        }

    @staticmethod
    def deserialize(data: dict) -> "DeltaExpr":
        return DeltaExpr.create(
            DPoly.deserialize(data["exact"]),
            {s: DPoly.deserialize(p) for s, p in data["opaque"].items()},
        )

    def display(self) -> str:
        parts = [self.exact.display()] if self.exact else []
        for s, p in self.opaque:
            parts.append(s if p == DPoly.constant(1) else f"({p.display()})*{s}")
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# special-fiber symmetrization and polarization search


def _series_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, int, int, int]:
    """a * b modulo t^4, for ascending coefficient 4-tuples."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0,
        a0 * b1 + a1 * b0,
        a0 * b2 + a1 * b1 + a2 * b0,
        a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0,
    )


def _edge_mul(a: tuple, b: tuple) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Multiply in Z[x,y]/(xy, x^4, y^4), the degree <= 3 edges of a diamond.

    An element is its x-edge (h^{0,0}, h^{1,0}, h^{2,0}, h^{3,0}) and its
    y-edge (h^{0,0}, h^{0,1}, h^{0,2}, h^{0,3}), which share the constant.
    Since xy = 0 no product of an x-term and a y-term survives, so a product
    is the two edges' truncated products.
    """
    return _series_mul(a[0], b[0]), _series_mul(a[1], b[1])


# (1/(1-y)) * ((1+x)/(1-xy)) in the edge quotient: 1/(1-y) has the edges
# (1,0,0,0) and (1,1,1,1), and (1+x)/(1-xy) = (1+x)(1+xy+...) has (1,1,0,0)
# and (1,0,0,0); each edge of the product is the product of the two edges
_FIBER_AUX = ((1, 1, 0, 0), (1, 1, 1, 1))
_ELLIPTIC = ((1, 1, 0, 0), (1, 1, 0, 0))  # 1 + x + y + xy, since xy = 0


class SpecialFiberFix(Record):
    l_factor: int
    composed_h30: int
    composed_h03: int
    composed_delta30: int
    closed_forms_ok: bool

    @property
    def symmetric(self) -> bool:
        return self.composed_delta30 == 0


def special_fiber_fix(delta30: int, edge: dict | None = None) -> SpecialFiberFix:
    """Number of elliptic factors cancelling a degree-3 special-fiber asymmetry.

    The auxiliary special fiber is the truncated series
    (1/(1-y)) * ((1+x)/(1-xy)) * (1+x+y+xy)^l reduced modulo (x^4, xy, y^4);
    its own asymmetry is -(l+1), so it cancels the fiber carrying the
    OPPOSITE (dual) orientation of the given one: with l = -delta30 - 1 the
    product of the transposed fiber with the auxiliary satisfies
    delta^{3,0} = -delta30 - (l+1) = 0, equivalently the composed
    delta^{0,3} reproduces delta30 + l + 1 = 0 exactly.  The quotient is a
    ring, so the l-th power is taken by square-and-multiply; it is multiplied
    out, not read off the edge closed forms (binomial sums in l), so those
    are re-derived independently and checked along the way.

    ``edge`` holds the known special fiber's edge coefficients
    {(i,0): h^{i,0}, (0,j): h^{0,j}} with symmetric degrees 1 and 2 and
    delta^{3,0} = delta30 < 0; the default is the minimal such table.
    """
    if delta30 >= 0:
        raise ValueError(f"fix applies only to delta^{{3,0}} < 0, got {delta30}")
    l = -delta30 - 1
    if edge is None:
        edge = {(0, 0): 1, (0, 3): -delta30}
    e30, e03, e20, e02 = [edge.get(k, 0) for k in ((3, 0), (0, 3), (2, 0), (0, 2))]
    if e30 - e03 != delta30:
        raise ValueError("edge data does not realize the given delta^{3,0}")
    if edge.get((0, 0), 0) != 1:
        raise ValueError("edge data must be connected (h^{0,0} = 1)")
    if edge.get((1, 0), 0) or edge.get((0, 1), 0):
        raise ValueError("edge data must have vanishing degree-1 numbers")
    if e20 != e02:
        raise ValueError("edge data must be symmetric in degree 2")

    aux, power, m = _FIBER_AUX, _ELLIPTIC, l
    while m:
        if m & 1:
            aux = _edge_mul(aux, power)
        m >>= 1
        if m:
            power = _edge_mul(power, power)
    # edge cells off the two edges or above degree 3 lie in the ideal
    x_edge = tuple([edge.get((i, 0), 0) for i in range(4)])
    y_edge = tuple([edge.get((0, j), 0) for j in range(4)])
    # the dual orientation swaps the edges
    composed = _edge_mul((y_edge, x_edge), aux)

    h30 = composed[0][3]
    h03 = composed[1][3]
    forms_ok = (
        h30 == comb(l, 3) + comb(l, 2) + e03 + (l + 1) * e02
        and h03 == comb(l, 3) + comb(l, 2) + l + 1 + e30 + (l + 1) * e20
        and h03 - h30 == delta30 + l + 1
    )
    return SpecialFiberFix(
        l_factor=l,
        composed_h30=h30,
        composed_h03=h03,
        composed_delta30=h30 - h03,
        closed_forms_ok=forms_ok,
    )


def polarization_value(h_top: int, k: int, dim: int, n: int) -> int:
    """Top self-intersection of H + nE after a point blow-up: H^d - (k-n)^d + k^d."""
    return h_top - (k - n) ** dim + k ** dim


def polarization_degree_search(h_top: int, k: int, dim: int, p: int) -> int:
    """Smallest n >= 0 making the blown-up self-intersection prime to p.

    Exists with n <= p because (k-n)^dim mod p takes at least two values as
    n varies over a full residue system.
    """
    if dim < 1 or k < 1:
        raise ValueError("need dim >= 1 and k >= 1")
    for n in range(p + 1):
        if polarization_value(h_top, k, dim, n) % p != 0:
            return n
    raise AssertionError("unreachable: some n <= p always works")


def weil_restriction_power(h: HodgePolynomial, d_prime: int) -> HodgePolynomial:
    """Coefficient table of the d_prime-fold self-product (concrete descent degree)."""
    if d_prime < 1:
        raise ValueError("d_prime must be positive")
    return h ** d_prime


def weil_restriction_delta30(delta30: int) -> DeltaExpr:
    """Degree-3 asymmetry after descent with an opaque degree: delta30 * d'."""
    return DeltaExpr.create(DPoly(()), {DESCENT_SYMBOL: DPoly.constant(delta30)})
