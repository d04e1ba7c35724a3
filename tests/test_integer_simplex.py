"""The packed fraction-free simplex against the tableau it replaced.

``simplex.simplex_min`` pivots integer rows packed into one int each, over
one common denominator, from a unit basis its caller names, and returns
ints over that denominator; ``helpers.reference_simplex_min`` is the
two-phase Fraction tableau. On the systems below, with rhs >= 0 and the
start columns in ascending order ahead of every other column they could
displace, phase 1 of the reference ends at the start basis with every row
unchanged, so both take Bland's phase-2 path through the same tableau
values and must return the same vertex, dual and objective, or raise the
same exception. A rational system goes to ``simplex_min`` scaled to ints,
and its answer is read back through ``helpers.rational_simplex_min``.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import omniscio.omniscience as omniscience
import omniscio.simplex as simplex
from omniscio import (
    build_family,
    counterexample_entropy_vector,
    make_counterexample,
    make_oracle,
    r_co,
    random_linear_source,
    witness_by_partition_search,
)
from omniscio.errors import InternalContractError
from omniscio.simplex import LpUnboundedError, feasible_point
from omniscio.subsets import complement, full_mask

from helpers import (
    LpInfeasibleError,
    admissible,
    rational_simplex_min,
    rationals,
    reference_simplex_min,
)

F = Fraction


def outcome(fn, *system):
    try:
        return fn(*system)
    except (LpInfeasibleError, LpUnboundedError) as exc:
        return type(exc)


def assert_same_outcome(matrix, rhs, costs, start):
    # rational_simplex_min asserts that simplex_min returns only ints and
    # den > 0, and reads back (z / den, y / den, objective / den), with the
    # scaling undone, for the comparison. The reference runs both phases.
    new = outcome(rational_simplex_min, matrix, rhs, costs, start)
    assert new == outcome(reference_simplex_min, matrix, rhs, costs)
    return new


def record_calls(monkeypatch):
    """A list of every simplex_min call made until ``monkeypatch.undo()``."""
    calls = []
    real = simplex.simplex_min

    def recording(matrix, rhs, costs, start):
        calls.append((matrix, rhs, costs, start))
        return real(matrix, rhs, costs, start)

    monkeypatch.setattr(simplex, "simplex_min", recording)
    return calls


def instances():
    for m in (3, 4, 5, 6):
        for active in sorted({full_mask(m), 0b111}):
            for seed in range(3):
                source = random_linear_source(m, m, 2, seed)
                yield f"m{m}-a{active:b}-s{seed}", source, active
    source, active = make_counterexample()
    yield "generative", source, active
    yield "paper-h", counterexample_entropy_vector(), 0b111


CASES = list(instances())


@pytest.mark.parametrize(
    "name,source,active", CASES, ids=[case[0] for case in CASES]
)
def test_every_library_call_matches_reference(name, source, active, monkeypatch):
    calls = record_calls(monkeypatch)
    oracle = make_oracle(source, validate=False)
    m = oracle.m
    witness_by_partition_search(oracle, active, report=r_co(oracle, active))
    if m <= 5:
        # Every admissible partition, so infeasible systems (an unbounded
        # dual) are recorded too, not only those passing the witness filter.
        family = build_family(m, active)
        b = [oracle.cond_entropy(mask) for mask in family.masks]
        for partition in admissible(m, active):
            comps = [complement(block, m) for block in partition]
            eq_b = [oracle.cond_entropy(c) for c in comps]
            feasible_point(m, family.masks, b, comps, eq_b)
    monkeypatch.undo()

    assert len(calls) >= 2
    for call in calls:
        assert_same_outcome(*call)


# The widest fields: m = 7 and 8 at A = M and |A| = 3.
WIDE = [
    (f"m{m}-a{active:b}-s{seed}", random_linear_source(m, m, 2, seed), active)
    for m in (7, 8)
    for active in (full_mask(m), 0b111)
    for seed in (0, 1)
]


@pytest.mark.parametrize(
    "name,source,active", WIDE, ids=[case[0] for case in WIDE]
)
def test_wide_library_calls_match_integer_reference(
    name, source, active, monkeypatch
):
    calls = record_calls(monkeypatch)
    oracle = make_oracle(source, validate=False)
    witness_by_partition_search(oracle, active, report=r_co(oracle, active))
    monkeypatch.undo()

    assert len(calls) >= 2
    for call in calls:
        assert_same_outcome(*call)


def count_calls(monkeypatch, *bindings):
    """Calls per name of every (module, name) binding given, until
    ``monkeypatch.undo()``."""
    counts = dict.fromkeys([name for _, name in bindings], 0)

    def counting(name, real):
        def call(*args):
            counts[name] += 1
            return real(*args)
        return call

    for module, name in bindings:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return counts


COUNTED = [
    (f"m{m}-a{active:b}", random_linear_source(m, m, 2, 0), active)
    for m in range(4, 9)
    for active in (full_mask(m), 0b111)
] + CASES[-2:]  # generative and paper-h


@pytest.mark.parametrize(
    "name,source,active", COUNTED, ids=[case[0] for case in COUNTED]
)
def test_one_r_co_runs_one_solve_one_uniqueness_test_and_two_lps(
    name, source, active, monkeypatch
):
    oracle = make_oracle(source, validate=False)
    counts = count_calls(
        monkeypatch,
        (omniscience, "solve"),
        (omniscience, "uniqueness_test"),
        (simplex, "simplex_min"),
    )
    r_co(oracle, active)
    monkeypatch.undo()
    assert counts == {"solve": 1, "uniqueness_test": 1, "simplex_min": 2}


cells = st.sampled_from(rationals(-3, 3, 4))
nonnegative = st.sampled_from(rationals(0, 3, 4))


def unit_first(matrix, rhs, costs):
    """[I | matrix] with the identity's columns as the start basis: the
    layout on which the references' phase 1 ends at that basis."""
    n = len(matrix)
    rows = [[int(k == i) for k in range(n)] + list(row) for i, row in enumerate(matrix)]
    return rows, rhs, costs, list(range(n))


@st.composite
def rational_systems(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 7))
    matrix = [draw(st.lists(cells, min_size=cols, max_size=cols)) for _ in range(rows)]
    rhs = draw(st.lists(nonnegative, min_size=rows, max_size=rows))
    costs = draw(st.lists(cells, min_size=rows + cols, max_size=rows + cols))
    return unit_first(matrix, rhs, costs)


# A [I | +-1] system whose z-row holds a cell past half the bound that
# sets the field width, so a field one bit narrower reads it wrong.
WIDTH_EDGE = unit_first(
    [[1, -1, 1, 1, 1], [1, 1, 1, -1, 1], [1, 1, -1, 1, 1]],
    [F(1), F(0), F(0)],
    [F(v) for v in (0, 1, 0, -1, -1, -1, -1, 1)],
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rational_systems())
@example(WIDTH_EDGE)
def test_random_rational_systems_match_reference(system):
    assert_same_outcome(*system)


@st.composite
def degenerate_systems(draw):
    """[I | A] with a row of A, a scalar multiple of it with both
    right-hand sides zero, and up to two more rows: the start vertex is
    degenerate, so Bland's rule may have to pivot without moving."""
    cols = draw(st.integers(1, 6))
    row = draw(st.lists(cells, min_size=cols, max_size=cols))
    factor = draw(st.sampled_from([F(-2), F(-1, 2), F(3, 4), F(2)]))
    extra = draw(st.lists(st.lists(cells, min_size=cols, max_size=cols), max_size=2))
    matrix = [row, [factor * v for v in row]] + extra
    rhs = [F(0), F(0)] + draw(
        st.lists(nonnegative, min_size=len(extra), max_size=len(extra))
    )
    order = draw(st.permutations(range(len(matrix))))
    width = len(matrix) + cols
    costs = draw(st.lists(cells, min_size=width, max_size=width))
    return unit_first([matrix[i] for i in order], [rhs[i] for i in order], costs)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(degenerate_systems())
def test_degenerate_systems_match_reference(system):
    assert_same_outcome(*system)


def sylvester(order):
    """The Sylvester-Hadamard +-1 matrix of the given power-of-two order."""
    h = [[1]]
    while len(h) < order:
        h = [row + row for row in h] + [row + [-v for v in row] for row in h]
    return h


@pytest.mark.parametrize("order", [2, 4, 8])
def test_sylvester_hadamard_systems_match_reference(order):
    # A Sylvester-Hadamard matrix has determinant n^(n/2), the Hadamard
    # bound of its columns, so a basis of its columns puts cells at the
    # bound that sets the packed field width. Large and fractional
    # right-hand sides and costs widen the rhs column and the z-row.
    h = sylvester(order)
    rng = random.Random(order)
    outcomes = set()
    for matrix in (h, [row + [-v for v in row] for row in h]):
        cols = order + len(matrix[0])
        for _ in range(6):
            rhs = [F(rng.randrange(0, 10**12), rng.randrange(1, 50))
                   for _ in range(order)]
            costs = [F(rng.randrange(-10**9, 10**9), rng.randrange(1, 50))
                     for _ in range(cols)]
            for c in (costs, [abs(v) for v in costs]):
                result = assert_same_outcome(*unit_first(matrix, rhs, c))
                outcomes.add(result if isinstance(result, type) else "optimal")
    assert "optimal" in outcomes


ROWS = [[1, 0, 1], [0, 1, 1]]


@pytest.mark.parametrize(
    "matrix,rhs,start",
    [
        (ROWS, [1, -1], [0, 1]),
        (ROWS, [1, 1], [1, 0]),
        (ROWS, [1, 1], [0, 2]),
        ([[2, 0, 1], [0, 1, 1]], [1, 1], [0, 1]),
        (ROWS, [1, 1], [0]),
        (ROWS, [1, 1], [0, 1, 2]),
        (ROWS, [1, 1], [0, 3]),
        (ROWS, [1, 1], [0, -2]),
        ([[], []], [0, 0], []),
    ],
    ids=[
        "negative-rhs", "swapped", "not-unit", "scaled-unit", "short",
        "long", "past-the-columns", "negative-index", "no-columns",
    ],
)
def test_simplex_min_refuses_a_start_that_is_not_a_feasible_unit_basis(
    matrix, rhs, start
):
    with pytest.raises(InternalContractError):
        simplex.simplex_min(matrix, rhs, [1, 1, 1][: len(matrix[0])], start)
