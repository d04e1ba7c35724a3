"""The packed validity scan against the all-pairs reference scan.

``check_validity`` packs the h table into one int of w-bit fields and reads
monotonicity, the elemental squares and the violating pairs off the fields'
sign bits. It must give exactly the report of ``reference_check_validity``,
which compares every pair of subsets one by one: the same violations in
the same order, with the same Fraction sides. Asked for the first
violation only, as ``make_oracle`` asks, it must list exactly the first of
those pairs. The width-edge tables put 2R + t, R the table's range and t
the scaled tolerance, within 2 of 2^(w-1), the bound the field width w is
chosen for, and reach |v| = 2R in a field, so a field one bit narrower
reads a wrong sign.
"""

import gc
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omniscio import check_validity, cli, counterexample_entropy_vector, make_oracle
from omniscio.errors import ValidationError
from omniscio.sources import EntropyVector

from helpers import oracle_from_table, reference_check_validity
from test_integer_tables import linear_joint, perturbed_vector, tabular_source

F = Fraction


def assert_same_report(oracle):
    report = check_validity(oracle)
    reference = reference_check_validity(oracle)
    assert report == reference
    assert report.describe_first() == reference.describe_first()
    # The first-only scan lists the least violated pair and nothing else.
    assert check_validity(oracle, first=True) == replace(
        report, supermodularity_violations=report.supermodularity_violations[:1]
    )
    return report


def vector_oracle(values):
    m = len(values).bit_length() - 1
    return make_oracle(EntropyVector(m, tuple(values)), validate=False)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.integers(2, 6).flatmap(
        lambda m: st.lists(st.integers(-6, 9), min_size=1 << m,
                           max_size=1 << m)
    ),
    st.sampled_from([None, 0.0, 1.0, 2.5, 3.0]),
)
def test_integer_tables(values, tolerance):
    m = len(values).bit_length() - 1
    oracle = oracle_from_table(m, values, tolerance or 0)
    assert_same_report(oracle)


@pytest.mark.parametrize("m", range(2, 10))
def test_linear_tables_moved_by_one(m):
    rng = random.Random(m)
    outcomes = set()
    for seed in range(3 if m <= 7 else 1):
        joint = linear_joint(m, seed)
        assert assert_same_report(vector_oracle(joint)).ok
        for _ in range(2 if m <= 7 else 1):
            moved = list(joint)
            for _ in range(rng.randrange(1, 3)):
                moved[rng.randrange(1, 1 << m)] += rng.choice((-1, 1))
            outcomes.add(assert_same_report(vector_oracle(moved)).ok)
    assert False in outcomes


@pytest.mark.parametrize("m", range(3, 10))
def test_lowered_by_slack_plus_half(m):
    # The benchmark's perturbation: one value lowered so that one
    # incomparable pair breaks supermodularity by exactly 1/2.
    for seed in range(2 if m <= 7 else 1):
        oracle = make_oracle(perturbed_vector(m, seed), validate=False)
        assert assert_same_report(oracle).supermodularity_violations


@pytest.mark.parametrize(
    "vector",
    [
        pytest.param(perturbed_vector(m, seed), id=f"m{m}-s{seed}")
        for m in range(3, 11)
        for seed in range(4 if m <= 8 else 2)
    ]
    + [pytest.param(counterexample_entropy_vector(), id="paper-h")],
)
def test_load_stops_at_first_violation(vector):
    # make_oracle asks only for the first violated pair; its error must be
    # the full report's first violation, and the full report must still
    # list every pair.
    oracle = make_oracle(vector, validate=False)
    full = check_validity(oracle)
    assert full == reference_check_validity(oracle)
    only = check_validity(oracle, first=True)
    assert full.supermodularity_violations
    assert only.supermodularity_violations == full.supermodularity_violations[:1]
    with pytest.raises(ValidationError) as refused:
        make_oracle(vector)
    assert str(refused.value) == full.describe_first() == only.describe_first()


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("m", range(2, 6))
def test_tabular_oracles(m, seed):
    oracle = make_oracle(tabular_source(m, seed))
    assert not oracle.exact
    assert assert_same_report(oracle).ok


def test_paper_h_table():
    report = assert_same_report(
        make_oracle(counterexample_entropy_vector(), validate=False)
    )
    assert report.supermodularity_violations
    assert not report.monotonicity_violations


def test_paper_h_scan_leaves_no_cyclic_garbage(capsys):
    # A reference cycle would keep a request's packed tables alive until the
    # collector runs, so peak memory would follow its timing. With automatic
    # collection off, a collection right after each call finds nothing.
    oracle = make_oracle(counterexample_entropy_vector(), validate=False)
    gc.collect()
    gc.disable()
    try:
        for first in (False, True):
            assert not check_validity(oracle, first=first).ok
            assert gc.collect() == 0, first
        assert cli.main(["audit", "--json"]) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert capsys.readouterr().out


def assert_at_width_edge(span, tol):
    bound = 1 << (2 * span + tol).bit_length()  # 2^(w-1)
    assert bound - 2 <= 2 * span + tol < bound


def edge_cases():
    # m = 2, H(1) = H(2) = R and H(12) = 0: u = h - min h is (R, 0, 0, R),
    # so the pair ({1}, {2}) has v = -2R, the square v = 2R and every
    # one-step gain -R or R.
    yield "exact", oracle_from_table(2, (0, 3, 3, 0)), 3, 0
    yield "tolerance", oracle_from_table(2, (0, 3, 3, 0), 1.0), 3, 1
    # m = 3 with a range of 31 and a tolerance of 1: 2R + t = 63.
    values = (0, 31, 31, 0, 31, 0, 0, 31)
    yield "m3", oracle_from_table(3, values, 1.0), 31, 1


@pytest.mark.parametrize(
    "name,oracle,span,tol", list(edge_cases()),
    ids=[case[0] for case in edge_cases()],
)
def test_width_edge_tables(name, oracle, span, tol):
    joint, t = oracle.joint, oracle.tol
    assert (max(joint) - min(joint), t) == (span, tol)
    assert_at_width_edge(span, tol)
    assert not assert_same_report(oracle).ok


def test_scaled_edge_table():
    # Halves scale the table by 2, so the range is 7 only after scaling.
    values = (F(0), F(7, 2), F(7, 2), F(0))
    oracle = vector_oracle(values)
    scale, joint = oracle.scale, oracle.joint
    assert (scale, max(joint) - min(joint)) == (2, 7)
    assert_at_width_edge(7, 0)
    assert not assert_same_report(oracle).ok
