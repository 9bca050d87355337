import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hodge_asym.polygons import (
    PolygonData,
    check_degree_relation,
    check_parity,
    check_slope_symmetry,
    check_weak_admissibility_endpoints,
    construct_weakly_admissible,
    newton_above_hodge,
    t_H,
    t_N,
)

from oracles import expanded_newton_above_hodge, polygon_ordinates

F = Fraction


def pd(n, hodge, newton):
    return PolygonData.create(n, hodge, newton)


def test_t_H_examples():
    assert t_H(pd(3, (0, 5, 2, 1), {F(3, 2): 8})) == 12
    assert t_H(pd(3, (0, 0, 0, 4), {0: 4})) == 0  # all mass at i=0
    assert t_H(pd(1, (1, 1), {F(1, 2): 2})) == 1


def test_t_N_examples():
    assert t_N({F(3, 2): 8}) == 12
    assert t_N({}) == 0
    assert t_N({F(1, 2): 4}) == 2


def test_weak_admissibility_endpoints():
    assert check_weak_admissibility_endpoints(pd(3, (0, 5, 2, 1), {F(3, 2): 8}))
    assert not check_weak_admissibility_endpoints(pd(1, (1, 0), {0: 1}))
    assert check_weak_admissibility_endpoints(pd(2, (0, 0, 0), {}))  # empty data


def test_slope_symmetry():
    assert check_slope_symmetry(pd(3, (0, 5, 2, 1), {F(3, 2): 8}))
    assert check_slope_symmetry(pd(2, (0, 4, 0), {0: 1, 1: 2, 2: 1}))
    assert not check_slope_symmetry(pd(1, (2, 1), {0: 2, 1: 1}))


def test_degree_relation():
    assert check_degree_relation(pd(3, (0, 5, 2, 1), {F(3, 2): 8}))
    assert not check_degree_relation(pd(2, (1, 0, 0), {1: 1}))
    assert check_degree_relation(pd(1, (3, 3), {F(1, 2): 6}))


def test_parity():
    assert check_parity(pd(3, (0, 5, 2, 1), {F(3, 2): 8}))
    assert not check_parity(pd(3, (0, 5, 2, 0), {F(12, 7): 7}))
    assert check_parity(pd(5, (0, 0, 1, 1, 0, 0), {F(5, 2): 2}))
    with pytest.raises(ValueError, match="undefined for even degree n=2"):
        check_parity(pd(2, (1, 0, 1), {0: 1, 2: 1}))


def test_construct_weakly_admissible_examples():
    a, b, dims = construct_weakly_admissible((0, 5, 2, 1), 3)
    assert (a, b) == (12, 8)
    assert F(a, b) == F(3, 2)
    assert dims == (8, 7, 5, 0)

    a, b, dims = construct_weakly_admissible((1, 1), 1)
    assert F(a, b) == F(1, 2)
    assert dims == (2, 1)

    # all mass at form-degree 0 passes the relation only in degree n = 0
    a, b, dims = construct_weakly_admissible((7,), 0)
    assert a == 0 and b == 7  # slope 0
    a, b, dims = construct_weakly_admissible((0, 0, 0, 0), 3)
    assert (a, b, dims) == (0, 0, (0, 0, 0, 0))

    with pytest.raises(ValueError, match=r"fails 2\*t_H = n\*rank \(2 != 1\)"):
        construct_weakly_admissible((1, 0), 1)
    with pytest.raises(ValueError, match=r"fails 2\*t_H = n\*rank \(0 != 21\)"):
        construct_weakly_admissible((0, 0, 0, 7), 3)  # t_H = 0 but rank 7


def test_construct_output_passes_checks():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 6)
        half = [rng.randint(0, 5) for _ in range(n + 1)]
        hodge = [a + b for a, b in zip(half, reversed(half))]  # symmetric => relation
        a, b, dims = construct_weakly_admissible(hodge, n)
        newton = {F(a, b): b} if b else {}
        data = pd(n, hodge, newton)
        assert check_weak_admissibility_endpoints(data)
        assert newton_above_hodge(data)
        assert a == t_H(data)
        assert dims[0] == b and all(x >= y for x, y in zip(dims, dims[1:]))


def test_newton_above_hodge_examples():
    assert newton_above_hodge(pd(3, (0, 5, 2, 1), {F(3, 2): 8}))
    assert newton_above_hodge(pd(1, (1, 1), {0: 1, 1: 1}))  # polygons coincide
    assert not newton_above_hodge(pd(1, (1, 1), {0: 2}))  # endpoint mismatch


def test_polygon_ordinates():
    assert polygon_ordinates({F(3, 2): 2, 0: 1}) == [0, 0, F(3, 2), 3]
    assert polygon_ordinates({}) == [0]


@st.composite
def polygon_inputs(draw):
    """(n, hodge, newton) with equal ranks.  The Newton slopes split the rank
    at random ("random"), or the same with the last slope set so the
    endpoints match ("endpoint"), or are the Hodge slopes ("coincide"), or
    the Hodge slopes with amounts moved between units, which keeps the
    endpoints and puts Newton breakpoints inside Hodge segments ("moved")."""
    n = draw(st.integers(0, 5))
    hodge = draw(st.lists(st.integers(0, 6), min_size=n + 1, max_size=n + 1))
    mode = draw(st.sampled_from(["random", "endpoint", "coincide", "moved"]))
    if mode in ("coincide", "moved"):
        units = [F(n - t) for t, h in enumerate(hodge) for _ in range(h)]
        for _ in range(draw(st.integers(0, 3)) if mode == "moved" and units else 0):
            i = draw(st.integers(0, len(units) - 1))
            j = draw(st.integers(0, len(units) - 1))
            amount = F(draw(st.integers(1, 3)), draw(st.integers(1, 8)))
            units[i] -= amount
            units[j] += amount
        newton = {}
        for s in units:
            newton[s] = newton.get(s, 0) + 1
        return n, hodge, newton
    parts, remaining = [], sum(hodge)
    while remaining:
        m = draw(st.integers(1, remaining))
        parts.append((F(draw(st.integers(-2, 2 * n + 2)), draw(st.integers(1, 4))), m))
        remaining -= m
    if mode == "endpoint" and parts:
        t_h = sum((n - t) * h for t, h in enumerate(hodge))
        m = parts[-1][1]
        parts[-1] = ((t_h - sum((s * k for s, k in parts[:-1]), F(0))) / m, m)
    newton = {}
    for s, m in parts:
        newton[s] = newton.get(s, 0) + m
    return n, hodge, newton


@settings(max_examples=300, deadline=None)
@given(polygon_inputs())
# ends match, and the Newton breakpoint (3, 3/4) lies inside the Hodge
# segment from (2, 0) to (4, 2), just below its (3, 1)
@example((1, [2, 2], {F(0): 2, F(3, 4): 1, F(5, 4): 1}))
def test_newton_above_hodge_matches_expanded_ordinates(inputs):
    n, hodge, newton = inputs
    assert newton_above_hodge(pd(n, hodge, newton)) == expanded_newton_above_hodge(hodge, newton)


def random_polygon(rng):
    n = rng.randint(1, 5)
    hodge = [rng.randint(0, 4) for _ in range(n + 1)]
    rank = sum(hodge)
    newton = {}
    remaining = rank
    while remaining:
        m = rng.randint(1, remaining)
        s = F(rng.randint(0, 2 * n), rng.randint(1, 3))
        newton[s] = newton.get(s, 0) + m
        remaining -= m
    return pd(n, hodge, newton)


def test_symmetric_multiset_implies_scalar():
    rng = random.Random(9)
    for _ in range(100):
        n = rng.randint(1, 5)
        slopes = {}
        for _ in range(rng.randint(0, 4)):
            s = F(rng.randint(-2, 2 * n + 2), rng.randint(1, 4))
            m = rng.randint(1, 3)
            slopes[s] = slopes.get(s, 0) + m
            mirrored = n - s
            slopes[mirrored] = slopes.get(mirrored, 0) + m
        rank = sum(slopes.values())
        hodge = [0] * (n + 1)
        hodge[0] = rank
        data = pd(n, hodge, slopes)
        assert check_slope_symmetry(data)
        assert 2 * t_N(dict(data.newton)) == n * data.rank


def test_three_scalar_identities_pairwise_derivable():
    # (degree relation AND endpoints) <=> (2*t_N = n*rank AND endpoints)
    rng = random.Random(21)
    for _ in range(200):
        data = random_polygon(rng)
        endpoints = check_weak_admissibility_endpoints(data)
        left = check_degree_relation(data) and endpoints
        right = 2 * t_N(dict(data.newton)) == data.n * data.rank and endpoints
        assert left == right


def test_twist_consistency():
    # shifting slopes by -m and filtration indices by -m scales nothing else
    rng = random.Random(33)
    for _ in range(50):
        m = rng.randint(1, 2)
        inner = rng.randint(1, 3)
        n = inner + 2 * m
        core = [rng.randint(0, 4) for _ in range(inner + 1)]
        core = [a + b for a, b in zip(core, reversed(core))]
        hodge = [0] * m + core + [0] * m  # supported in [m, n-m]
        a, b, _ = construct_weakly_admissible(hodge, n)
        newton = {F(a, b): b} if b else {}
        data = pd(n, hodge, newton)

        shifted_hodge = core
        shifted_newton = {s - m: mult for s, mult in newton.items()}
        shifted = pd(n - 2 * m, shifted_hodge, shifted_newton)

        rank = data.rank
        assert t_H(shifted) == t_H(data) - m * rank
        assert t_N(dict(shifted.newton)) == t_N(dict(data.newton)) - m * rank
        for check in (
            check_degree_relation,
            check_weak_admissibility_endpoints,
            check_slope_symmetry,
            newton_above_hodge,
        ):
            assert check(shifted) == check(data), check.__name__


def test_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        pd(1, (1, 1), {0: 1})
    with pytest.raises(ValueError):
        pd(1, (1,), {0: 1})
