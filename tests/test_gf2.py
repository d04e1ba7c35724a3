"""GF(2) rank against the span it counts."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from omniscio.gf2 import gf2_rank


def span(rows):
    """Every XOR of a subset of the rows, by brute force."""
    vectors = {0}
    for row in rows:
        vectors |= {v ^ row for v in vectors}
    return vectors


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 63), max_size=8))
@example([])
@example([0, 0, 0])
@example([5, 5, 3, 5, 6])
@example([1, 2, 4, 8, 16, 32, 63, 0])
def test_two_to_the_rank_is_the_size_of_the_span(rows):
    assert 2 ** gf2_rank(rows) == len(span(rows))
