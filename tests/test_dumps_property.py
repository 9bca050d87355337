"""cli.dumps against the standard library: ``json.dumps(x, indent=2) + "\\n"``, byte for byte.

The writer handles exact JSON only, what the program emits: str-keyed dicts,
lists, str, int, bool and None.  The values below mix them at every depth,
with int lists and int rows (its two fast paths) among them; any other value
is refused with TypeError.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hodge_asym import pipeline
from hodge_asym.cli import dumps
from hodge_asym.cyclochar import CharRep
from hodge_asym.hodgecalc import DPoly

EXAMPLES = settings(max_examples=300, deadline=None)

ints = st.integers(min_value=-(2 ** 80), max_value=2 ** 80)
int_like = st.one_of(ints, st.booleans())  # True must print as true, not 1
# quotes, backslashes, control characters and text outside ASCII
texts = st.one_of(
    st.text(), st.sampled_from(['"', "\\", "\n\t\x00\x1f", "é", "✓ snow ☃", "\U0001f600"])
)
leaves = st.one_of(st.none(), st.booleans(), ints, texts)
int_lists = st.one_of(st.lists(ints, min_size=1, max_size=5), st.lists(int_like, max_size=5))
int_rows = st.one_of(
    st.lists(st.lists(ints, min_size=1, max_size=4), min_size=1, max_size=5),
    st.lists(st.lists(int_like, max_size=4), max_size=5),  # an empty row now and then
)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(texts, children, max_size=4),
    )


values = st.recursive(st.one_of(leaves, int_lists, int_rows), containers, max_leaves=25)


@EXAMPLES
@given(values)
def test_dumps_matches_the_standard_library(value):
    assert dumps(value) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize("value", [
    {}, [], [[1, 2], [3], []], [[]], {"a": {}}, {"a": [[], {}]},
    [[1, 2], []], [[1, True]], [True, 1], [[1], [2, 3]],
    [None, False, "", 0], {"\x00\x1f": [" ", "\U0001f600"]}, {"ok": {"": [[-1]]}},
    ["\"\\\x07é "], [2 ** 64 + 1, -(2 ** 70)],
])
def test_dumps_edge_cases(value):
    assert dumps(value) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize("value", [
    1.5, float("nan"), float("inf"), -float("inf"), [1.5, float("nan")],
    (1, 2), (), [[1], (2, 3)],
    {1: 2}, {None: 1}, {True: 1}, {"ok": {2.5: 1}},
    Fraction(1, 2), DPoly((1, 2)), CharRep.from_text("l=5; 1:1"),
    [1, 2.0], [[1, 2.5]],
], ids=repr)
def test_dumps_refuses_what_is_not_exact_json(value):
    # the standard library writes each of these; no caller of the writer should
    with pytest.raises(TypeError):
        dumps(value)


@pytest.mark.parametrize("l", [61, 101])
def test_dumps_of_ladder_certificates(l):
    payload = pipeline.serialize_certificate(pipeline.build_certificate(2, 4, 2, l=l))
    assert dumps(payload) == json.dumps(payload, indent=2) + "\n"
