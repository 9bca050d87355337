"""The one-pass diamond checks against the expressions they replaced (tests/oracles.py).

``isoclinic-th-all-degrees`` sums ``(i - j) * h^{i,j}`` per degree in one pass,
and ``antidiagonal-duality`` reads the sorted cells against their reversal.
Both must give the reference's verdict on every table, passing or not.
"""

from hypothesis import given, settings, strategies as st

from hodge_asym.hodgecalc import HodgePolynomial
from hodge_asym.pipeline import _isoclinic_checks, _slice_checks
from oracles import lookup_antidiagonal_duality, slicewise_degree_relations

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
def test_one_pass_checks_agree_with_the_slicewise_reference(case):
    table, dim = case
    slice_checks = _slice_checks(table, dim)
    isoclinic_checks = _isoclinic_checks(table, dim)
    assert [name for name, _ in slice_checks] == SLICE_NAMES
    assert [name for name, _ in isoclinic_checks] == ISOCLINIC_NAMES
    assert dict(slice_checks)["antidiagonal-duality"] == lookup_antidiagonal_duality(table, dim)
    assert dict(isoclinic_checks)["isoclinic-th-all-degrees"] == slicewise_degree_relations(
        table, dim
    )

