"""Source models and the conditional-entropy oracle."""

import math
from fractions import Fraction

import pytest

from omniscio import (
    EntropyVector,
    InvalidInputError,
    TabularSource,
    ValidationError,
    check_validity,
    counterexample_entropy_vector,
    make_counterexample,
    make_oracle,
    make_sunflower,
    merge_terminals,
    partition_dependence,
    random_linear_source,
)
from omniscio.sources import LinearGF2Source
from omniscio.subsets import complement, full_mask, mask_from_terminals

from helpers import brute_force_joint_entropy

F = Fraction


def shared_bit_source(m=3):
    # Every terminal observes the same single uniform bit.
    return LinearGF2Source(m, 1, tuple((1,) for _ in range(m)))


class TestCounterexampleSource:
    def test_shape(self):
        src, active = make_counterexample()
        assert src.m == 6
        assert src.n == 4
        assert active == mask_from_terminals([1, 2, 3], 6)

    def test_terminal_one_observes_y1_xor_y3(self):
        src, _ = make_counterexample()
        assert src.rows[0] == (0b0101,)  # bits 0 and 2 select Y1 and Y3

    def test_joint_entropy_of_everything_is_three(self):
        src, _ = make_counterexample()
        oracle = make_oracle(src)
        assert oracle.total_entropy() == 3

    def test_single_terminal_entropy_is_one(self):
        src, _ = make_counterexample()
        oracle = make_oracle(src)
        assert oracle.joint_entropy(0b000001) == 1

    def test_cardinality_five_conditional_entropy_is_two(self):
        src, _ = make_counterexample()
        oracle = make_oracle(src)
        for j in range(6):
            b = complement(1 << j, 6)
            assert oracle.cond_entropy(b) == 2

    def test_h_of_124_is_zero_contradicting_published_table(self):
        src, _ = make_counterexample()
        oracle = make_oracle(src)
        b = mask_from_terminals([1, 2, 4], 6)
        assert oracle.cond_entropy(b) == 0
        paper = make_oracle(counterexample_entropy_vector(), validate=False)
        assert paper.cond_entropy(b) == 1

    def test_rank_oracle_matches_assignment_enumeration(self):
        src, _ = make_counterexample()
        oracle = make_oracle(src)
        for s in range(1 << 6):
            assert oracle.joint_entropy(s) == brute_force_joint_entropy(src, s)


class TestOracleBasics:
    @pytest.mark.parametrize("seed", range(6))
    def test_linear_rank_matches_brute_force_small(self, seed):
        src = random_linear_source(4, 6, 2, seed)
        oracle = make_oracle(src)
        for s in range(1 << 4):
            assert oracle.joint_entropy(s) == brute_force_joint_entropy(src, s)

    def test_conditional_entropy_identity(self):
        src = random_linear_source(4, 4, 2, seed=9)
        oracle = make_oracle(src)
        total = oracle.total_entropy()
        for b in range(1 << 4):
            h = oracle.cond_entropy(b)
            assert h == total - oracle.joint_entropy(complement(b, 4))
            assert h >= 0
        assert oracle.cond_entropy(0) == 0
        assert oracle.cond_entropy(full_mask(4)) == total

    def test_monotonicity(self):
        src = random_linear_source(4, 5, 2, seed=3)
        oracle = make_oracle(src)
        for b in range(1 << 4):
            for j in range(4):
                if not b >> j & 1:
                    assert oracle.cond_entropy(b) <= oracle.cond_entropy(b | 1 << j)

    def test_tabular_matches_direct_conditional_entropy(self):
        # Correlated pair: equal bits w.p. 3/8 each, unequal w.p. 1/8 each.
        pmf = (
            ((0, 0), F(3, 8)),
            ((1, 1), F(3, 8)),
            ((0, 1), F(1, 8)),
            ((1, 0), F(1, 8)),
        )
        src = TabularSource(2, (2, 2), pmf)
        oracle = make_oracle(src)
        # h({1}) = H(X1 | X2) computed directly from conditionals.
        direct = 0.0
        for x2 in (0, 1):
            p2 = sum(float(p) for (a, b), p in pmf if b == x2)
            cond = [float(p) / p2 for (a, b), p in pmf if b == x2]
            direct += p2 * -sum(q * math.log2(q) for q in cond)
        assert abs(float(oracle.cond_entropy(0b01)) - direct) < 1e-9
        assert not oracle.exact


class TestValidity:
    @pytest.mark.parametrize("seed", range(8))
    def test_linear_sources_are_valid(self, seed):
        src = random_linear_source(4, 5, 2, seed)
        report = check_validity(make_oracle(src))
        assert report.ok
        assert report.describe_first() == "no violation"

    def test_shared_bit_pair_is_valid(self):
        report = check_validity(make_oracle(shared_bit_source(2)))
        assert report.ok

    def test_published_table_violates_supermodularity(self):
        oracle = make_oracle(counterexample_entropy_vector(), validate=False)
        report = check_validity(oracle)
        assert not report.ok
        b1 = mask_from_terminals([1, 2, 4], 6)
        b2 = mask_from_terminals([1, 2, 5], 6)
        hits = [v for v in report.supermodularity_violations if {v[0], v[1]} == {b1, b2}]
        assert hits and hits[0][2] == 2 and hits[0][3] == 1  # 1+1 > 1+0

    def test_invalid_vector_rejected_at_load(self):
        with pytest.raises(ValidationError):
            make_oracle(counterexample_entropy_vector())

    def test_non_monotone_vector_reported(self):
        values = [F(0), F(3), F(1), F(2)]  # H({1}) > H({1,2})
        report = check_validity(make_oracle(EntropyVector(2, tuple(values)), validate=False))
        assert report.monotonicity_violations


class TestSunflower:
    def test_total_entropy(self):
        oracle = make_oracle(make_sunflower(3, 2, 1))
        assert oracle.total_entropy() == 5  # 2 core + 3 petals

    def test_block_entropy_is_core_plus_petals(self):
        oracle = make_oracle(make_sunflower(4, 2, 1))
        for s in range(1, 1 << 4):
            assert oracle.joint_entropy(s) == 2 + s.bit_count()

    def test_dependence_of_every_partition_is_core_entropy(self):
        oracle = make_oracle(make_sunflower(3, 2, 1))
        for blocks in [(0b011, 0b100), (0b001, 0b010, 0b100), (0b101, 0b010)]:
            assert partition_dependence(oracle, blocks) == 2

    def test_independent_sources_have_zero_dependence(self):
        oracle = make_oracle(make_sunflower(2, 0, 1))
        assert partition_dependence(oracle, (0b01, 0b10)) == 0


class TestMerge:
    def test_singleton_partition_is_identity(self):
        src = random_linear_source(4, 4, 2, seed=5)
        merged = merge_terminals(src, (1, 2, 4, 8))
        a, b = make_oracle(src), make_oracle(merged)
        assert a.joint == b.joint

    def test_merged_entropy_equals_block_union_entropy(self):
        src, _ = make_counterexample()
        blocks = (0b001001, 0b010010, 0b100100)  # {1,4}, {2,5}, {3,6}
        merged = merge_terminals(src, blocks)
        assert merged.m == 3
        a, b = make_oracle(src), make_oracle(merged)
        for t in range(1 << 3):
            union = 0
            for i in range(3):
                if t >> i & 1:
                    union |= blocks[i]
            assert b.joint_entropy(t) == a.joint_entropy(union)

    def test_merge_preserves_sunflower_dependence(self):
        src = make_sunflower(4, 1, 1)
        oracle = make_oracle(src)
        blocks = (0b0011, 0b1100)
        merged_oracle = make_oracle(merge_terminals(src, blocks))
        original = partition_dependence(oracle, blocks)
        singletons = partition_dependence(merged_oracle, (0b01, 0b10))
        assert singletons == original == 1

    def test_merge_entropy_vector(self):
        src, _ = make_counterexample()
        vec = EntropyVector(6, make_oracle(src).joint)
        blocks = (0b000111, 0b111000)
        merged = merge_terminals(vec, blocks)
        assert merged.joint_entropy(0b01) == make_oracle(src).joint_entropy(0b000111)

    def test_merge_tabular(self):
        pmf = (((0, 0, 0), F(1, 2)), ((1, 1, 1), F(1, 2)))
        src = TabularSource(3, (2, 2, 2), pmf)
        merged = merge_terminals(src, (0b011, 0b100))
        assert merged.m == 2
        oracle = make_oracle(merged)
        assert abs(float(oracle.total_entropy()) - 1.0) < 1e-9

    def test_invalid_partition_rejected(self):
        src = random_linear_source(3, 3, 1, seed=0)
        with pytest.raises(InvalidInputError):
            merge_terminals(src, (0b001, 0b001, 0b110))
        with pytest.raises(InvalidInputError):
            merge_terminals(src, (0b001, 0b010))


class TestRandomSource:
    def test_deterministic_in_seed(self):
        assert random_linear_source(4, 5, 2, 42) == random_linear_source(4, 5, 2, 42)
        assert random_linear_source(4, 5, 2, 42) != random_linear_source(4, 5, 2, 43)

    def test_single_one_bit_vector_is_forced(self):
        src = random_linear_source(2, 1, 1, seed=7)
        assert src.rows == ((1,), (1,))
        oracle = make_oracle(src)
        assert partition_dependence(oracle, (0b01, 0b10)) == 1
