"""hodgecalc.product against the naive convolution of tests/oracles.py.

product keys each cell (i, j) by the int i*base + j, with base one more than
the largest j of a product cell.  The tables drawn here reach what that
packing and the truncation must get right:

- every nonempty table has a cell in its largest column, so an unbounded
  product of two nonempty tables has a cell at j = base - 1, where a stride
  one short collides with the next row;
- far bidegrees (around 10^9), where nothing may be sized by bidegree;
- DPoly cells whose products cancel, so zero cells must be dropped;
- bounded and unbounded factors, with bounds near the far cells too.
"""

from hypothesis import example, given, settings, strategies as st

from hodge_asym.hodgecalc import DPoly, HodgePolynomial, product
from oracles import naive_table_product

H = HodgePolynomial.create
FAR = 10**9
D = DPoly.create([0, 1])

degrees = st.one_of(st.integers(0, 5), st.integers(FAR, FAR + 2))
cells = st.tuples(degrees, degrees)
bounds = st.one_of(st.none(), st.integers(0, 12), st.integers(FAR, 2 * FAR + 4))
# few values of either sign, so symbolic products often cancel
symbolic_values = st.sampled_from([D, -D, D * D, -(D * D), DPoly.constant(1), DPoly.constant(-1)])


@st.composite
def tables(draw):
    values = draw(st.sampled_from([st.integers(1, 3), symbolic_values]))
    return H(draw(st.dictionaries(cells, values, max_size=6)), draw(bounds))


@settings(max_examples=300, deadline=None)
@given(st.tuples(tables(), tables()))
# (1 + d*x) * (d - d^2*x): the x terms cancel
@example((H({(0, 0): DPoly.constant(1), (1, 0): D}), H({(0, 0): D, (1, 0): -(D * D)})))
# the largest columns meet at (2, 8), j = base - 1 with base = 1 + 3 + 5; a stride
# of 8 would read that cell as (3, 0)
@example((H({(0, 0): 1, (1, 3): 1}), H({(1, 5): 2, (2, 0): 1})))
@example((H({(FAR, 0): 1, (0, FAR): 1}, 2 * FAR), H({(0, 0): 1, (FAR, FAR): 1})))
@example((H({}), H({(0, 0): 1, (2, 3): 4}, 4)))
def test_product_matches_the_naive_convolution_in_both_orders(pair):
    a, b = pair
    bound = min([h.bound for h in pair if h.bound is not None], default=None)
    want = H(naive_table_product(dict(a.coeffs), dict(b.coeffs), bound), bound)
    assert product(a, b) == want
    assert product(b, a) == want
