"""``reporting.render_json`` writes exactly ``json.dumps(v, indent=2)``.

The writer builds the indented text itself instead of going through the
standard library's pure-Python encoder, so its bytes are compared with
``json.dumps`` on generated values: nested dicts and lists, empty
containers, strings and keys with non-ASCII, control and quote
characters, large negative ints, and ``True``, ``1`` and ``None`` side by
side. ``tests/golden/`` pins the reports the CLI renders.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import omniscio.reporting as reporting
from omniscio.reporting import render_json

TEXT = st.text(
    st.one_of(
        st.characters(),
        st.sampled_from('"\\/\x00\x1f\x7f é\U0001f600'),
    ),
    max_size=8,
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(max_value=-(10**30)),
    st.sampled_from([True, 1, None, 0, False]),
    TEXT,
)
VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.dictionaries(TEXT, children, max_size=4)
    ),
    max_leaves=25,
)


def dumps(value):
    return json.dumps(value, indent=2) + "\n"


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(TEXT, VALUES, max_size=5))
def test_reports_match_json_dumps(report):
    assert render_json(report) == dumps(report)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(VALUES)
def test_any_value_matches_json_dumps(value):
    assert render_json(value) == dumps(value)


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        {"a": {}, "b": [], "c": [[]], "d": [{}]},
        {"x": [True, 1, None, False, 0]},
        {"é\"\n": "\x00\t\\\U0001f600", "": ""},
        {"n": -(10**40), "l": [1, [2, [-3]]]},
        ["a", 1],
        [1, True],
        ["x", None],
    ],
    ids=["empty-dict", "empty-list", "nested-empty", "true-one-none", "escapes",
         "big-negative-int", "str-then-int", "int-then-bool", "str-then-none"],
)
def test_examples_match_json_dumps(value):
    assert render_json(value) == dumps(value)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(), st.integers(min_value=1))
@example(0, 6)
def test_rates_and_weights_are_written_as_fraction_writes_them(num, den):
    # The capacity report writes the LP's ints over their denominator
    # without building a Fraction.
    assert reporting._ratio(num, den) == str(Fraction(num, den))


def test_unsupported_value_raises_type_error():
    with pytest.raises(TypeError):
        render_json({"x": Fraction(1, 2)})
