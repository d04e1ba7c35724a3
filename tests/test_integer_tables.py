"""The integer-table validity scan and I(A) loop against the references.

``check_validity`` and ``mutual_dependence_bound`` run on the oracle's
joint entropies scaled to exact ints, and an exact table skips the pair
listing when every elemental square holds. Both must give exactly what
``helpers`` gives: the all-pairs ``reference_check_validity`` report
(violating pairs, their order and their Fraction sides, and the message),
and the brute-force bound with the same minimizers in the same order.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omniscio import (
    check_validity,
    counterexample_entropy_vector,
    make_counterexample,
    make_oracle,
    mutual_dependence_bound,
    random_linear_source,
)
from omniscio.errors import InvalidInputError
from omniscio.sources import EntropyVector, TabularSource
from omniscio.subsets import full_mask

from helpers import (
    brute_force_mutual_dependence_bound,
    oracle_from_table,
    reference_check_validity,
)

F = Fraction


def assert_same_report(oracle):
    report = check_validity(oracle)
    reference = reference_check_validity(oracle)
    assert report == reference
    if not report.ok:
        assert report.describe_first() == reference.describe_first()
    return report


def linear_joint(m, seed):
    return list(make_oracle(random_linear_source(m, m, 2, seed)).joint)


def perturbed_vector(m, seed):
    """A linear table with one value lowered so that one incomparable pair
    breaks supermodularity by exactly 1/2."""
    rng = random.Random(seed)
    joint = linear_joint(m, seed)
    full = full_mask(m)
    while True:
        x, t = rng.randrange(1, full), rng.randrange(1, full)
        if x & t not in (x, t):
            break
    joint[x] -= joint[x] + joint[t] - joint[x | t] - joint[x & t] + F(1, 2)
    return EntropyVector(m, tuple(joint))


def tabular_source(m, seed):
    rng = random.Random(seed)
    weights = [rng.randrange(0, 4) for _ in range(1 << m)]
    weights[0] += 1
    total = sum(weights)
    pmf = tuple(
        (symbols, F(w, total))
        for symbols, w in zip(product((0, 1), repeat=m), weights)
        if w
    )
    return TabularSource(m, (2,) * m, pmf)


class TestValidityMatchesReference:
    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("m", range(2, 9))
    def test_random_linear_tables(self, m, seed):
        vector = EntropyVector(m, tuple(linear_joint(m, seed)))
        assert assert_same_report(make_oracle(vector, validate=False)).ok

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("m", range(3, 9))
    def test_perturbed_tables(self, m, seed):
        oracle = make_oracle(perturbed_vector(m, seed), validate=False)
        assert assert_same_report(oracle).supermodularity_violations

    def test_non_monotone_table(self):
        values = [F(v) for v in linear_joint(4, 0)]
        values[0b0011] = values[0b0001] - F(1, 3)
        oracle = make_oracle(EntropyVector(4, tuple(values)), validate=False)
        assert assert_same_report(oracle).monotonicity_violations

    def test_published_counterexample_table(self):
        oracle = make_oracle(counterexample_entropy_vector(), validate=False)
        assert not assert_same_report(oracle).ok

    @pytest.mark.parametrize("seed", range(3))
    def test_tabular_oracle(self, seed):
        oracle = make_oracle(tabular_source(3, seed))
        assert not oracle.exact
        assert assert_same_report(oracle).ok

    def test_inexact_oracle_with_violations(self):
        vector = perturbed_vector(5, 0)
        for tolerance in (0.25, 0.5):
            oracle = oracle_from_table(5, vector.values, tolerance)
            assert_same_report(oracle)

    def test_plain_int_values(self):
        values = [int(v) for v in linear_joint(5, 1)]
        oracle = make_oracle(EntropyVector(5, tuple(values)), validate=False)
        assert assert_same_report(oracle).ok
        values[0b00101] -= 1
        values[0] = 1
        oracle = make_oracle(EntropyVector(5, tuple(values)), validate=False)
        assert not assert_same_report(oracle).ok

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(2, 4).flatmap(
            lambda m: st.lists(st.integers(-2, 5), min_size=1 << m,
                               max_size=1 << m)
        ),
        st.sampled_from([None, 0.5]),
    )
    def test_small_integer_tables(self, values, tolerance):
        m = len(values).bit_length() - 1
        oracle = oracle_from_table(m, values, tolerance or 0)
        assert_same_report(oracle)


class TestBoundMatchesReference:
    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("m", range(3, 8))
    def test_random_linear_tables(self, m, seed):
        oracle = make_oracle(random_linear_source(m, m, 2, seed))
        for active in (full_mask(m), 0b111):
            assert mutual_dependence_bound(oracle, active) == (
                brute_force_mutual_dependence_bound(oracle, active)
            )

    def test_counterexamples(self):
        source, active = make_counterexample()
        paper = make_oracle(counterexample_entropy_vector(), validate=False)
        for oracle in (make_oracle(source), paper):
            assert mutual_dependence_bound(oracle, active) == (
                brute_force_mutual_dependence_bound(oracle, active)
            )

    def test_tabular_oracle(self):
        oracle = make_oracle(tabular_source(4, 0))
        assert mutual_dependence_bound(oracle, 0b1111) == (
            brute_force_mutual_dependence_bound(oracle, 0b1111)
        )


class TestUnnormalisedTable:
    def test_nonzero_empty_entropy_is_invalid_input(self):
        values = (F(1), F(1), F(1), F(2))
        oracle = make_oracle(EntropyVector(2, values), validate=False)
        with pytest.raises(InvalidInputError, match="H\\(X_emptyset\\)"):
            mutual_dependence_bound(oracle, 0b11)

    def test_empty_entropy_within_tolerance_is_accepted(self):
        values = (F(1, 8), F(1), F(1), F(2))
        oracle = oracle_from_table(2, values, 0.25)
        bound, _ = mutual_dependence_bound(oracle, 0b11)
        assert bound == brute_force_mutual_dependence_bound(oracle, 0b11)[0]
