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
``simplex_min`` takes its rows packed: a dense system goes over through
``helpers.packed_system``, and a recorded library call comes back to the
reference through ``helpers.unpack``.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

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
    packed_system,
    rational_simplex_min,
    rationals,
    reference_simplex_min,
    unpack,
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

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(simplex, "simplex_min", recording)
    return calls


def assert_call_matches_reference(rows, rhs, costs, start, w):
    # The recorded call itself, and the reference on its rows unpacked: the
    # same vertex, dual and objective, or the same exception.
    new = outcome(simplex.simplex_min, rows, rhs, costs, start, w)
    if not isinstance(new, type):
        z, y, objective, den = new
        new = [F(v, den) for v in z], [F(v, den) for v in y], F(objective, den)
    matrix = [unpack(row, len(costs), w) for row in rows]
    assert new == outcome(reference_simplex_min, matrix, rhs, costs)


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
        assert_call_matches_reference(*call)


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
        assert_call_matches_reference(*call)


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


# Field reads at both ends of a packed row, on cells of both signs. The
# first case enters column 0 and keeps its start basis in the last two
# fields; the second starts at fields 0 and 1 and enters the last field.
# Every pivot column holds a negative cell, which its row update
# multiplies, and the dual is read off the z-row at the start fields.
EDGE_FIELDS = {
    "field-0": ([[-1, 1, 1, 0], [2, -1, 0, 1]], [1, 4], [-1, -1, 0, 0], [2, 3]),
    "last-field": ([[1, 0, 1, -1], [0, 1, -2, 3]], [2, 3], [0, 0, 1, -2], [0, 1]),
}


@pytest.mark.parametrize("name", sorted(EDGE_FIELDS))
def test_fields_are_read_at_both_ends_of_a_row(name):
    matrix, rhs, costs, start = EDGE_FIELDS[name]
    rows, *_, w = packed_system(matrix, rhs, costs, start)
    assert [unpack(row, len(costs), w) for row in rows] == matrix
    assert_call_matches_reference(rows, rhs, costs, start, w)


def test_width_exceeds_the_row_count():
    # _optimum packs the dual's m rows at _width(m, 1, costs), at least the
    # width with no costs, and the mask stack is exact only above m bits.
    assert all(simplex._width(m, 1, []) > m for m in range(1, 64))


@st.composite
def mask_families(draw):
    """Rows of a rate system at m = 2..8, every singleton among them, in
    any order, and up to three equality masks, the full one among the
    choices."""
    m = draw(st.integers(2, 8))
    full = full_mask(m)
    extra = draw(st.sets(st.integers(1, full - 1), max_size=40))
    masks = draw(st.permutations(sorted(extra | {1 << j for j in range(m)})))
    eq_masks = draw(
        st.lists(st.one_of(st.just(full), st.integers(1, full)), max_size=3)
    )
    return m, masks, eq_masks


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mask_families())
def test_dual_rows_are_the_incidence_matrix_at_the_least_width(family):
    # Field by field, at w = m + 1, row j is [A^T | E^T | -E^T]'s row j,
    # with nothing above its columns.
    m, masks, eq_masks = family
    w = m + 1
    rows = simplex._dual_rows(m, [*masks, *eq_masks], len(masks), w)
    assert len(rows) == m
    for j, row in enumerate(rows):
        a = [mask >> j & 1 for mask in masks]
        e = [mask >> j & 1 for mask in eq_masks]
        dense = a + e + [-v for v in e]
        assert unpack(row, len(dense), w) == dense


# A feasibility LP of the witness search at m = 5 (rhs 0, so every vertex
# is degenerate), cut down to 14 of its columns. Bland's rule finds it
# unbounded; with the ratio tie-break reversed, so that the larger basic
# index leaves, the run cycles.
CYCLING = (
    [
        [1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 0, -1],
        [0, 1, 0, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, -1],
        [0, 0, 1, 0, 1, 1, 0, 0, 1, 0, 0, 1, 0, -1],
        [0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1, 0, -1],
        [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, -1, 0],
    ],
    [0, 0, 0, 0, 0],
    [0, 0, 0, 0, -1, -2, 0, -1, -3, -1, -3, -3, 0, 3],
    [0, 1, 2, 3, 6],
)

# simplex_min's own source with the tie-break reversed, as the mutation
# sweep (tests/mutants.py) would build it, run on the packed CYCLING. The
# comparison is matched in either strictness: the ratio test compares two
# distinct basic columns, so both forms break ties the same way.
REVERSED_TIE_BREAK = """
import inspect
import re
import omniscio.simplex as simplex
from omniscio.errors import InternalContractError

source = inspect.getsource(simplex.simplex_min)
source, n = re.subn(r"basis\\[i\\] <=? basis\\[pi\\]", "basis[i] > basis[pi]", source)
assert n == 1
namespace = dict(vars(simplex))
exec(source, namespace)
try:
    namespace["simplex_min"](*{args!r})
except InternalContractError as exc:
    print("refused:", exc)
"""


def test_simplex_min_refuses_a_run_that_cycles():
    assert assert_same_outcome(*CYCLING) is LpUnboundedError
    script = REVERSED_TIE_BREAK.format(args=packed_system(*CYCLING))
    src = Path(simplex.__file__).resolve().parent.parent
    # Without the cap on its pivots the run never ends, and the timeout
    # fails the test.
    run = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "refused: simplex cycled: more pivots than bases\n"


ROWS = [[1, 0, 1], [0, 1, 1]]


@pytest.mark.parametrize(
    "matrix,rhs,start",
    [
        (ROWS, [1, -1], [0, 1]),
        (ROWS, [1, 1], [1, 0]),
        (ROWS, [1, 1], [0, 2]),
        ([[2, 0, 1], [0, 1, 1]], [1, 1], [0, 1]),
        (ROWS, [1, 1], [0]),
        (ROWS, [1, 1], [0, 1, 1]),
        ([[1, 0, 1], [1, 1, 1]], [1, 1], [0, 0]),
        (ROWS, [1, 1], [0, 3]),
        (ROWS, [1, 1], [0, -2]),
        ([[], []], [0, 0], []),
    ],
    ids=[
        "negative-rhs", "swapped", "not-unit", "scaled-unit", "short",
        "long", "repeated", "past-the-columns", "negative-index", "no-columns",
    ],
)
def test_simplex_min_refuses_a_start_that_is_not_a_feasible_unit_basis(
    matrix, rhs, start
):
    costs = [1, 1, 1][: len(matrix[0])]
    with pytest.raises(InternalContractError):
        simplex.simplex_min(*packed_system(matrix, rhs, costs, start))
