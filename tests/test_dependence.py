"""Partition enumeration and the mutual-dependence bound."""

import math
from fractions import Fraction

import pytest

from omniscio import (
    counterexample_entropy_vector,
    enumerate_admissible,
    enumerate_partitions,
    make_oracle,
    make_sunflower,
    merge_terminals,
    mutual_dependence_bound,
    partition_dependence,
    random_linear_source,
)
from omniscio.errors import InvalidInputError
from omniscio.sources import LinearGF2Source, TabularSource
from omniscio.subsets import full_mask

from helpers import brute_force_partitions

F = Fraction
BELL = {2: 2, 3: 5, 4: 15, 5: 52, 6: 203}


def shared_bit_source(m=3):
    return LinearGF2Source(m, 1, tuple((1,) for _ in range(m)))


class TestEnumeration:
    def test_three_terminals_two_blocks(self):
        parts = list(enumerate_partitions(3, 0b111, 2))
        assert len(parts) == 3
        assert parts == [(0b011, 0b100), (0b101, 0b010), (0b001, 0b110)]

    def test_counterexample_partition_counts(self):
        k2 = list(enumerate_partitions(6, 0b111, 2))
        k3 = list(enumerate_partitions(6, 0b111, 3))
        assert len(k2) == 24
        assert len(k3) == 27
        assert len(k2) + len(k3) == 51

    def test_block_missing_active_set_excluded(self):
        bad = (0b000111, 0b111000)  # {1,2,3}, {4,5,6}: second block misses A
        assert bad not in set(enumerate_partitions(6, 0b111, 2))

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_all_active_counts_bell_minus_one(self, m):
        parts = list(enumerate_admissible(m, full_mask(m)))
        assert len(parts) == BELL[m] - 1

    @pytest.mark.parametrize("m,active", [(4, 0b0011), (5, 0b10101), (6, 0b000111)])
    def test_matches_brute_force_filter(self, m, active):
        size_a = active.bit_count()
        expected = {
            tuple(p)
            for p in brute_force_partitions(m)
            if 2 <= len(p) <= size_a and all(b & active for b in p)
        }
        got = list(enumerate_admissible(m, active))
        assert len(got) == len(set(got))
        assert set(got) == expected

    def test_canonical_block_order(self):
        for p in enumerate_admissible(5, 0b11111):
            lows = [b & -b for b in p]
            assert lows == sorted(lows)

    def test_k_out_of_range(self):
        with pytest.raises(InvalidInputError):
            list(enumerate_partitions(4, 0b0011, 3))


class TestPartitionDependence:
    def test_published_table_pair_blocks(self):
        oracle = make_oracle(counterexample_entropy_vector(), validate=False)
        blocks = (0b001001, 0b010010, 0b100100)  # sizes 2+2+2
        assert partition_dependence(oracle, blocks) == F(5, 2)

    def test_published_table_three_three(self):
        oracle = make_oracle(counterexample_entropy_vector(), validate=False)
        blocks = (0b000111, 0b111000)
        # Both blocks meet A = {1,2,3}? The second misses A, but the
        # dependence formula itself is still well defined.
        assert partition_dependence(oracle, (0b100011, 0b011100)) == 2
        assert partition_dependence(oracle, blocks) == 2

    def test_sunflower_always_core(self):
        oracle = make_oracle(make_sunflower(4, 2, 1))
        for p in enumerate_admissible(4, full_mask(4)):
            assert partition_dependence(oracle, p) == 2

    def test_nonnegative_on_valid_oracles(self):
        for seed in range(4):
            oracle = make_oracle(random_linear_source(4, 4, 2, seed))
            for p in enumerate_admissible(4, full_mask(4)):
                assert partition_dependence(oracle, p) >= 0

    def test_tabular_matches_divergence(self):
        pmf = (
            ((0, 0), F(3, 8)),
            ((1, 1), F(3, 8)),
            ((0, 1), F(1, 8)),
            ((1, 0), F(1, 8)),
        )
        src = TabularSource(2, (2, 2), pmf)
        oracle = make_oracle(src)
        value = partition_dependence(oracle, (0b01, 0b10))
        marg1, marg2 = src.marginal(0b01), src.marginal(0b10)
        divergence = sum(
            float(p) * math.log2(float(p) / float(marg1[(a,)] * marg2[(b,)]))
            for (a, b), p in pmf
        )
        assert abs(float(value) - divergence) < 1e-9


class TestPartitionChecks:
    SOURCE = random_linear_source(3, 3, 2, 0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda s: partition_dependence(make_oracle(s), (0b001, 0b001)),
            lambda s: partition_dependence(make_oracle(s), (0b001, 0b010)),
            lambda s: partition_dependence(make_oracle(s), (0b011, 0b110, 0b100)),
            lambda s: merge_terminals(s, (0b111,)),
        ],
        ids=["overlap-and-gap", "gap", "overlap", "one-block-merge"],
    )
    def test_non_partition_rejected(self, call):
        with pytest.raises(InvalidInputError):
            call(self.SOURCE)


class TestBound:
    def test_published_table_bound_is_two(self):
        oracle = make_oracle(counterexample_entropy_vector(), validate=False)
        bound, minimizers = mutual_dependence_bound(oracle, 0b111)
        assert bound == 2
        assert minimizers
        for p in minimizers:
            assert partition_dependence(oracle, p) == 2

    def test_two_terminals_single_partition(self):
        oracle = make_oracle(random_linear_source(2, 3, 2, seed=5))
        bound, minimizers = mutual_dependence_bound(oracle, 0b11)
        expected = (
            oracle.joint_entropy(0b01)
            + oracle.joint_entropy(0b10)
            - oracle.total_entropy()
        )
        assert bound == expected
        assert minimizers == [(0b01, 0b10)]

    def test_shared_bit_every_partition_minimizes(self):
        oracle = make_oracle(shared_bit_source(3))
        bound, minimizers = mutual_dependence_bound(oracle, 0b111)
        assert bound == 1
        assert len(minimizers) == BELL[3] - 1

    def test_enumeration_cap(self, monkeypatch):
        oracle = make_oracle(shared_bit_source(3))
        monkeypatch.setenv("OMNISCIO_MAX_M", "2")
        with pytest.raises(InvalidInputError):
            mutual_dependence_bound(oracle, 0b111)
        monkeypatch.setenv("OMNISCIO_MAX_M", "3")
        assert mutual_dependence_bound(oracle, 0b111)[0] == 1


class TestMergeConsistency:
    @pytest.mark.parametrize("seed", range(4))
    def test_merged_bound_at_most_partition_value(self, seed):
        src = random_linear_source(4, 4, 2, seed)
        oracle = make_oracle(src)
        for p in enumerate_admissible(4, full_mask(4)):
            value = partition_dependence(oracle, p)
            merged = make_oracle(merge_terminals(src, p))
            k = len(p)
            singletons = tuple(1 << i for i in range(k))
            assert partition_dependence(merged, singletons) == value
            merged_bound, _ = mutual_dependence_bound(merged, full_mask(k))
            assert merged_bound <= value
