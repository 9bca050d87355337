"""cli.dumps against the standard library: ``json.dumps(x, indent=2) + "\\n"``, byte for byte.

The writer walks str-keyed dicts, lists and tuples itself and hands every
other value to the standard library, so the values below mix both kinds at
every depth.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from hodge_asym import pipeline
from hodge_asym.cli import dumps

EXAMPLES = settings(max_examples=300, deadline=None)

ints = st.integers(min_value=-(2 ** 80), max_value=2 ** 80)
int_like = st.one_of(ints, st.booleans())  # True must print as true, not 1
# quotes, backslashes, control characters and text outside ASCII
texts = st.one_of(
    st.text(), st.sampled_from(['"', "\\", "\n\t\x00\x1f", "é", "✓ snow ☃", "\U0001f600"])
)
leaves = st.one_of(
    st.none(), st.booleans(), ints, texts,
    st.floats(allow_nan=True, allow_infinity=True),
)
int_lists = st.one_of(st.lists(ints, min_size=1, max_size=5), st.lists(int_like, max_size=5))
int_rows = st.one_of(
    st.lists(st.lists(ints, min_size=1, max_size=4), min_size=1, max_size=5),
    st.lists(st.lists(int_like, max_size=4), max_size=5),  # an empty row now and then
)
non_str_keys = st.one_of(ints, st.booleans(), st.none(), st.floats(allow_nan=False))


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(texts, children, max_size=4),
        st.dictionaries(non_str_keys, children, max_size=3),
    )


values = st.recursive(st.one_of(leaves, int_lists, int_rows), containers, max_leaves=25)


@EXAMPLES
@given(values)
def test_dumps_matches_the_standard_library(value):
    assert dumps(value) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize("value", [
    {}, [], (), [[]], {"a": {}}, {"a": [[], {}]},
    [[1, 2], []], [[1, True]], [True, 1], [[1], (2, 3)],
    [1.5, float("nan"), float("inf"), -float("inf")],
    {1: [2], None: 3, True: "x"}, {"ok": {2.5: 1}},
    ["\"\\\x07é "], [2 ** 64 + 1, -(2 ** 70)],
])
def test_dumps_edge_cases(value):
    assert dumps(value) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize("l", [61, 101])
def test_dumps_of_ladder_certificates(l):
    payload = pipeline.serialize_certificate(pipeline.build_certificate(2, 4, 2, l=l))
    assert dumps(payload) == json.dumps(payload, indent=2) + "\n"
