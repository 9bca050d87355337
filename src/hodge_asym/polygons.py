"""Hodge vectors, Newton slope multisets and the polygon-level checks.

Everything here is the discrete shadow of a filtered module in a single
cohomological degree n: a Hodge vector (h^{n,0}, ..., h^{0,n}), a multiset
of rational Frobenius slopes, the endpoint numbers t_H and t_N, and the
polygon comparisons built from them.  Slopes are exact Fractions; no
floating point anywhere.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

from .record import Record


def _normalize_newton(newton) -> dict[Fraction, int]:
    out: dict[Fraction, int] = {}
    for slope, m in dict(newton).items():
        if m < 0:
            raise ValueError("slope multiplicities must be non-negative")
        if m == 0:
            continue
        s = Fraction(slope)
        out[s] = out.get(s, 0) + m
    return out


def _hodge_vector(hodge, n: int) -> tuple[int, ...]:
    hv = tuple(int(h) for h in hodge)
    if n < 0 or len(hv) != n + 1:
        raise ValueError(f"hodge vector must have length n+1 = {n + 1}")
    if any(h < 0 for h in hv):
        raise ValueError("Hodge numbers must be non-negative")
    return hv


class PolygonData(Record):
    """Hodge vector plus Newton slopes for one cohomological degree n.

    ``hodge`` is ordered by descending Omega-degree: hodge[0] = h^{n,0},
    hodge[t] = h^{n-t,t}, ..., hodge[n] = h^{0,n}.  This is the order used
    on the command line and in certificates.
    """

    n: int
    hodge: tuple[int, ...]
    newton: tuple[tuple[Fraction, int], ...]

    @staticmethod
    def create(n: int, hodge, newton) -> "PolygonData":
        hv = _hodge_vector(hodge, n)
        ns = _normalize_newton(newton)
        if sum(hv) != sum(ns.values()):
            raise ValueError(
                f"rank mismatch: Hodge rank {sum(hv)} vs Newton rank {sum(ns.values())}"
            )
        return PolygonData(n, hv, tuple(sorted(ns.items())))

    @property
    def rank(self) -> int:
        return sum(self.hodge)

    def h(self, i: int) -> int:
        """h^{i, n-i}."""
        return self.hodge[self.n - i]


def t_H(pd: PolygonData) -> int:
    """Hodge endpoint: sum of i * h^{i,n-i}."""
    return sum(i * pd.h(i) for i in range(pd.n + 1))


def t_N(slopes) -> Fraction:
    """Newton endpoint: sum of slope * multiplicity over the multiset."""
    total = Fraction(0)
    for slope, m in _normalize_newton(slopes).items():
        total += slope * m
    return total


def check_weak_admissibility_endpoints(pd: PolygonData) -> bool:
    """Endpoint equality t_N = t_H (the only strength of admissibility used here)."""
    return t_N(dict(pd.newton)) == t_H(pd)


def check_slope_symmetry(pd: PolygonData) -> bool:
    """Slope multiset invariant under s -> n - s."""
    ns = dict(pd.newton)
    return all(ns.get(pd.n - s, 0) == m for s, m in ns.items())


def degree_relation(hodge) -> bool:
    """Degree-n relation for (h^{n,0}, ..., h^{0,n}): sum i*h^{i,n-i} = sum (n-i)*h^{i,n-i},
    i.e. 2*t_H = n*rank.

    At n = 1 this is h^{1,0} = h^{0,1}, at n = 2 it is h^{2,0} = h^{0,2}.
    """
    n = len(hodge) - 1
    return 2 * sum((n - t) * h for t, h in enumerate(hodge)) == n * sum(hodge)


def check_degree_relation(pd: PolygonData) -> bool:
    """The degree relation of the polygon's Hodge vector."""
    return degree_relation(pd.hodge)


def check_parity(pd: PolygonData) -> bool:
    """For odd n, the total rank must be even whenever the degree relation holds."""
    if pd.n % 2 == 0:
        raise ValueError(f"parity predicate undefined for even degree n={pd.n}")
    return pd.rank % 2 == 0


class WeaklyAdmissibleDatum(NamedTuple):
    a: int                      # t_H of the input vector
    b: int                      # its rank; the single slope is a/b
    filtration_dims: tuple[int, ...]  # dim F^0 .. dim F^n (suffix sums)


def construct_weakly_admissible(hodge, n: int) -> WeaklyAdmissibleDatum:
    """Single-slope datum realizing a Hodge vector satisfying the degree relation.

    Returns (a, b, filtration dims) with slope a/b of multiplicity b and
    dim F^i = h^{i,n-i} + ... + h^{n,0}; the resulting PolygonData passes
    both the endpoint check and newton_above_hodge.
    """
    hv = _hodge_vector(hodge, n)
    b = sum(hv)
    a = sum(i * hv[n - i] for i in range(n + 1))
    if 2 * a != n * b:
        raise ValueError(
            f"hodge vector {tuple(hv)} fails 2*t_H = n*rank ({2 * a} != {n * b})"
        )
    # dim F^i = hv[0] + ... + hv[n-i]: the prefix sums of hv, read from the end
    dims = tuple(accumulate(hv))[::-1]
    return WeaklyAdmissibleDatum(a=a, b=b, filtration_dims=dims)


def hodge_slopes(pd: PolygonData) -> dict[Fraction, int]:
    """The Hodge polygon as a slope multiset: slope i with multiplicity h^{i,n-i}."""
    return {Fraction(i): pd.h(i) for i in range(pd.n + 1) if pd.h(i)}


def _vertices(slopes) -> tuple[list[int], list[Fraction]]:
    """Abscissas and ordinates of the breakpoints of the convex polygon drawn
    from (0,0) with the given slopes in ascending order."""
    xs, ys = [0], [Fraction(0)]
    for s, m in sorted(slopes.items()):
        xs.append(xs[-1] + m)
        ys.append(ys[-1] + s * m)
    return xs, ys


def _ordinate(xs: list[int], ys: list[Fraction], x: int) -> Fraction:
    """Ordinate at abscissa x of the polygon with breakpoints (xs, ys)."""
    k = bisect_left(xs, x)
    if xs[k] == x:
        return ys[k]
    return ys[k - 1] + (ys[k] - ys[k - 1]) * (x - xs[k - 1]) / (xs[k] - xs[k - 1])


def newton_above_hodge(pd: PolygonData) -> bool:
    """Newton polygon on or above the Hodge polygon with matching endpoints.

    Both polygons are drawn from (0,0) with slopes in ascending order, so
    both are convex and piecewise linear.  Between consecutive Newton
    breakpoints the Newton polygon is linear and the Hodge polygon convex,
    so their difference is concave there and smallest at the two ends: the
    ordinates are compared exactly at the Newton breakpoints only, one per
    distinct slope, not one per unit of rank.
    """
    nx, ny = _vertices(dict(pd.newton))
    hx, hy = _vertices(hodge_slopes(pd))
    if (nx[-1], ny[-1]) != (hx[-1], hy[-1]):
        return False
    return all(y >= _ordinate(hx, hy, x) for x, y in zip(nx, ny))
