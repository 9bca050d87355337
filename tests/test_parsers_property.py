"""Property tests for the text and JSON parsers at the CLI boundary.

Every input either parses or raises ValueError, which the CLI turns into
exit 2; no input may escape as another exception.  Moduli stay at l <= 50:
the parsers allocate one slot per residue, and capping l belongs to the
bounded-work limits, not to parsing.
"""

import json

from hypothesis import given, settings, strategies as st

from hodge_asym.cli import parse_coeff_table, parse_int_list, parse_newton
from hodge_asym.cyclochar import CharRep
from hodge_asym.hodgecalc import HodgePolynomial

EXAMPLES = settings(max_examples=100, deadline=None)

small = st.integers(-60, 50)
junk = st.text(alphabet=" l=;:,/-+.ex0123456789", max_size=3)


@st.composite
def mutated(draw, text):
    """``text`` with a short run of junk spliced in at a drawn position."""
    if not draw(st.booleans()):
        return text
    at = draw(st.integers(0, len(text)))
    cut = draw(st.integers(0, 2))
    return text[:at] + draw(junk) + text[at + cut:]


@st.composite
def charrep_texts(draw):
    l = draw(st.integers(-50, 50))
    items = draw(st.lists(st.tuples(small, st.integers(-3, 5)), max_size=6))
    body = ",".join(f"{a}:{m}" for a, m in items)
    return draw(mutated(f"l={l}; {body}"))


@st.composite
def newton_texts(draw):
    items = draw(st.lists(st.tuples(small, st.integers(-3, 5), st.integers(-3, 9)), max_size=6))
    return draw(mutated(",".join(f"{a}/{b}:{m}" for a, b, m in items)))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=12,
)
# cells that a coercing parser would turn into ints: 1.5, 2.0, true and "1"
cell = st.integers(-2, 6) | st.sampled_from([1.5, 2.0, True, "1", None, [0]])
row = st.lists(cell, min_size=3, max_size=3) | st.lists(cell, max_size=4)
coeff_documents = json_values | st.lists(row, max_size=5).map(lambda rows: {"coeffs": rows})


def parses_or_value_error(parse, text):
    try:
        return parse(text)
    except ValueError:
        return None


@EXAMPLES
@given(charrep_texts())
def test_charrep_from_text(text):
    v = parses_or_value_error(CharRep.from_text, text)
    if v is not None:
        assert CharRep.from_text(v.to_text()) == v


@EXAMPLES
@given(newton_texts())
def test_parse_newton(text):
    slopes = parses_or_value_error(parse_newton, text)
    if slopes is not None:
        assert all(m == int(m) for m in slopes.values())


@EXAMPLES
@given(st.text(max_size=30) | st.lists(small, max_size=6).map(lambda xs: ",".join(map(str, xs))))
def test_parse_hodge_vector(text):
    vector = parses_or_value_error(lambda t: parse_int_list(t, "hodge vector"), text)
    if vector is not None:
        assert all(type(h) is int for h in vector)


@EXAMPLES
@given(coeff_documents)
def test_parse_coeff_table(document):
    table = parses_or_value_error(parse_coeff_table, json.dumps(document))
    if table is not None:
        # only a table of integer cells parses; nothing is coerced
        rows = document["coeffs"]
        assert all(type(x) is int for row in rows for x in row)
        assert table == HodgePolynomial.create({(i, j): c for i, j, c in rows})
