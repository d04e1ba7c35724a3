"""The entropy-vector reader against the per-entry loop it replaced.

``source_from_document`` looks each subset key up in an index of the 2^m
canonical spellings, falling back to ``parse_mask_spec`` for any other
spelling, and parses each distinct string value once per document. It must
give exactly the vector of the reference loop in ``helpers``, or raise the
same error with the same text: on keys spelled out of order, with spaces or
twice, on JSON numbers, on bad keys and values, on missing subsets, and on
every entropy table of the benchmark's bound_tables workload at seed 0.
"""

import json
import os
import sys
from fractions import Fraction

import pytest

from omniscio.errors import InvalidInputError
from omniscio.fileio import source_from_document
from omniscio.subsets import format_mask

from helpers import reference_entropy_vector

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))
import workloads  # noqa: E402


def outcome(read):
    try:
        return read()
    except Exception as exc:  # the type and text are what must agree
        return type(exc), str(exc)


def assert_same_vector(values, m=3):
    doc = {
        "m": m,
        "active": [1, 2],
        "source": {"type": "entropy_vector", "values": values},
    }
    got = outcome(lambda: source_from_document(doc)[0])
    expected = outcome(lambda: reference_entropy_vector(values, m))
    assert got == expected
    if not isinstance(expected, tuple):
        assert all(type(v) is Fraction for v in got.values)
    return got


def canonical(m=3):
    return {format_mask(s): str(s.bit_count()) for s in range(1, 1 << m)}


def edited(**changes):
    values = canonical()
    for key, value in changes.items():
        values[key.replace("_", ",")] = value
    return values


CASES = {
    "canonical": canonical(),
    "empty key": {"": "0", **canonical()},
    "empty key nonzero": {**canonical(), "": "1/2"},
    "permuted": {
        "1": "1", "2": "1", "2,1": "2", "3": "1", "3,1": "2", "2,3": "2",
        "3,1,2": "3",
    },
    "spaced": {
        " 1": "1", "2 ": "1", "1, 2": "2", "3": "1", " 1 ,3 ": "2",
        "2,3": "2", "1,2,3": "3",
    },
    "duplicate, last wins": {**canonical(), "2,1": "7/2"},
    "duplicate, canonical last": {"2,1": "7/2", **canonical()},
    "padded terminal": {**canonical(), "01": "5"},
    "json numbers": edited(**{"1": 1, "1_2": 2.5, "3": True}),
    "plus sign": edited(**{"1_3": "+9"}),
    "repeated strings": {key: "3/7" for key in canonical()},
    "non-ascii digits": edited(**{"2": "٣/٤"}),
    "zero denominator": edited(**{"2_3": "1/0"}),
    "word": edited(**{"1": "two"}),
    "null value": edited(**{"1": None}),
    "list value": edited(**{"1": [1]}),
    "bad key x": {**canonical(), "x": "1"},
    "bad key 0": {**canonical(), "0": "1"},
    "key out of range": {**canonical(), "4": "1"},
    "empty terminal": {**canonical(), "1,,2": "1"},
    "negative terminal": {**canonical(), "-1": "1"},
    "bad key before bad value": {"9": "1", **edited(**{"1": "1/0"})},
    "bad value before bad key": {**edited(**{"1": "1/0"}), "9": "1"},
    "missing one": {k: v for k, v in canonical().items() if k != "1,3"},
    "missing several": {k: v for k, v in canonical().items()
                        if k not in ("3", "2,3")},
    "only empty": {"": "0"},
}


@pytest.mark.parametrize("values", CASES.values(), ids=list(CASES))
def test_documents_match_reference(values):
    assert_same_vector(values)


def test_every_case_reaches_its_branch():
    # Both outcomes occur, and each error comes from the branch named.
    assert not isinstance(assert_same_vector(CASES["spaced"]), tuple)
    kind, text = assert_same_vector(CASES["bad key before bad value"])
    assert "terminal 9 out of range" in text
    kind, text = assert_same_vector(CASES["bad value before bad key"])
    assert text == "bad rational '1/0'"
    kind, text = assert_same_vector(CASES["missing several"])
    assert text == "entropy vector missing subset {3}"
    for name, first, second in (
        ("duplicate, last wins", "1,2", "2,1"),
        ("duplicate, canonical last", "2,1", "1,2"),
    ):
        kind, text = assert_same_vector(CASES[name])
        assert (kind, text) == (
            InvalidInputError,
            f"entropy vector gives subset {{1,2}} twice, as {first!r} and {second!r}",
        )
    for name, text in (("null value", "None"), ("list value", "[1]")):
        kind, message = assert_same_vector(CASES[name])
        assert (kind, message) == (InvalidInputError, f"bad rational {text}")


@pytest.mark.parametrize("m", (2, 5))
def test_all_canonical_spellings(m):
    values = {format_mask(s): f"{s}/{m}" for s in range(1, 1 << m)}
    vector = assert_same_vector(values, m)
    assert vector.values == tuple(Fraction(s, m) for s in range(1 << m))


def test_bound_tables_files():
    requests = workloads.build_round("bound_tables", 0)
    documents = [
        json.loads(json.dumps(inst.document()))
        for inst in workloads.instances(requests)
    ]
    assert len(documents) == 50
    for doc in documents:
        assert_same_vector(doc["source"]["values"], doc["m"])
