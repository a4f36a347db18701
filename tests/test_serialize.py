"""`serialize.dumps` against `json.dumps(sort_keys=True, indent=2)`."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from wittkit.serialize import dumps, parse_int

# unicode, control characters, quotes, backslashes and the astral plane
TEXT = st.text(st.one_of(
    st.characters(),
    st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f",
                     " ", "\U0001f600", "\U0010ffff"])))
LEAVES = st.one_of(
    st.none(), st.booleans(), TEXT,
    st.integers(-10**40, 10**40), st.sampled_from([10**40, -10**40]),
    st.floats(allow_nan=False, allow_infinity=False),
)
DOCS = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(inner, inner),
        st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=30)


@given(DOCS)
@settings(max_examples=400, deadline=None)
def test_dumps_is_json_dumps(doc):
    assert dumps(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("doc", [[], {}, (), [[], {}], {"a": [{}]}])
def test_empty_containers(doc):
    assert dumps(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("doc", [
    {1: "x"}, {None: 1}, {True: 1}, {1.5: 1}, {"a": {("t",): 1}},
    [{"a": 1, 2: "b"}],
])
def test_non_str_key_raises(doc):
    with pytest.raises(TypeError):
        dumps(doc)


@pytest.mark.parametrize("doc", [
    {1, 2}, b"bytes", object(), [1, {"a": {2}}], float("nan"),
    float("inf"), [float("-inf")],
])
def test_unknown_type_raises(doc):
    with pytest.raises(TypeError):
        dumps(doc)


def test_parse_int_inputs():
    # ints pass through; strings parse as fractions with denominator 1
    assert parse_int(4) == 4 and type(parse_int(4)) is int
    assert parse_int(-10**40) == -10**40
    assert parse_int("4/2") == 2 and type(parse_int("4/2")) is int
    assert parse_int(" -7 ") == -7
    for bad in (True, False, 2.0, "1/2", "x"):
        with pytest.raises(ValueError):
            parse_int(bad)
