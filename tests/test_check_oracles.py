"""The one-pass diamond checks against the expressions they replaced (tests/oracles.py).

``_diamond_checks`` sums ``(i - j) * h^{i,j}`` per degree in one pass and reads
every degree verdict off those sums: the two symmetry checks, the slice
relations, ``isoclinic-th-all-degrees`` and both degree-3 Newton checks.
``antidiagonal-duality`` reads the sorted cells against their reversal.  Each
must give the reference's verdict on every table, passing or not.
"""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from hodge_asym import polygons
from hodge_asym.cmbuild import degree_slice
from hodge_asym.hodgecalc import HodgePolynomial
from hodge_asym.pipeline import _diamond_checks
from oracles import (
    expanded_newton_above_hodge,
    lookup_antidiagonal_duality,
    slicewise_degree_relations,
)

EXAMPLES = settings(max_examples=300, deadline=None)
SLICE_NAMES = [
    "degree1-symmetry", "degree2-symmetry", "degree-relation-n1", "degree-relation-n2",
    "degree-relation-n3", "odd-degree-parity-n3", "antidiagonal-duality",
]
ISOCLINIC_NAMES = [
    "isoclinic-th-all-degrees", "newton-endpoint-degree3", "newton-above-hodge-degree3",
]


@st.composite
def tables(draw):
    """(table, dim): random cells up to one step past the diamond, perhaps made
    Hodge-symmetric (every degree relation holds), given asymmetric pairs that
    keep the relations, made dual, and knocked off by one cell, so that both
    verdicts of both checks occur."""
    dim = draw(st.integers(0, 6))
    side = st.integers(0, dim + 1)
    cells = draw(st.dictionaries(st.tuples(side, side), st.integers(0, 4), max_size=30))
    if draw(st.booleans()):
        cells = {**cells, **{(j, i): c for (i, j), c in cells.items() if i < j}}
    for _ in range(draw(st.integers(0, 3)) if dim else 0):
        # an asymmetric pair that keeps its degree's relation: weights i - j of
        # opposite signs, each cell carrying the other's weight
        n = draw(st.integers(1, 2 * dim))
        below = [t for t in range(n + 1) if 2 * t < n]
        above = [t for t in range(n + 1) if 2 * t > n]
        t1, t2 = draw(st.sampled_from(below)), draw(st.sampled_from(above))
        k = draw(st.integers(1, 2))
        for (i, j), c in (((n - t1, t1), (2 * t2 - n) * k), ((n - t2, t2), (n - 2 * t1) * k)):
            cells[(i, j)] = cells.get((i, j), 0) + c
    if draw(st.booleans()):
        cells = {
            **cells,
            **{(dim - i, dim - j): c for (i, j), c in cells.items() if i <= dim and j <= dim},
        }
    if draw(st.booleans()):
        cell = (draw(side), draw(side))
        cells[cell] = cells.get(cell, 0) + draw(st.integers(1, 3))
    return HodgePolynomial.create(cells), dim


@EXAMPLES
@given(tables())
# at dim 1 the all-degrees relation stops at degree 2, and the Newton checks still
# read degree 3
@example((HodgePolynomial.create({(2, 1): 1}), 1))
def test_one_pass_checks_agree_with_the_slicewise_reference(case):
    table, dim = case
    checks = _diamond_checks(table, dim, True)
    slice_checks, isoclinic_checks = checks[:len(SLICE_NAMES)], checks[len(SLICE_NAMES):]
    assert _diamond_checks(table, dim, False) == slice_checks
    assert [name for name, _ in slice_checks] == SLICE_NAMES
    assert [name for name, _ in isoclinic_checks] == ISOCLINIC_NAMES
    verdicts = dict(checks)
    assert verdicts["antidiagonal-duality"] == lookup_antidiagonal_duality(table, dim)
    assert verdicts["isoclinic-th-all-degrees"] == slicewise_degree_relations(table, dim)
    relations = {n: polygons.degree_relation(degree_slice(table, n)) for n in (1, 2, 3)}
    assert verdicts["degree1-symmetry"] == verdicts["degree-relation-n1"] == relations[1]
    assert verdicts["degree2-symmetry"] == verdicts["degree-relation-n2"] == relations[2]
    assert verdicts["degree-relation-n3"] == relations[3]
    # the polygon checks the certificate ran before: every isoclinic slope is 3/2
    sl3 = degree_slice(table, 3)
    pd = polygons.PolygonData.create(3, sl3, {Fraction(3, 2): sum(sl3)})
    endpoint = polygons.check_weak_admissibility_endpoints(pd)
    assert verdicts["newton-endpoint-degree3"] == endpoint
    above = polygons.newton_above_hodge(pd)
    assert above == expanded_newton_above_hodge(sl3, {Fraction(3, 2): sum(sl3)})
    assert verdicts["newton-above-hodge-degree3"] == above
