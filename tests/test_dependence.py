"""Partition enumeration and the mutual-dependence bound."""

import math
from fractions import Fraction

import pytest

from omniscio import (
    counterexample_entropy_vector,
    enumerate_admissible,
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

from helpers import admissible

F = Fraction
BELL = {2: 2, 3: 5, 4: 15, 5: 52, 6: 203}


def walk(m, active):
    """The library's admissible partitions: its walk on a zero table."""
    return [p for _, p in enumerate_admissible(m, active, bytes(1 << m))]


def shared_bit_source(m=3):
    return LinearGF2Source(m, 1, tuple((1,) for _ in range(m)))


class TestEnumeration:
    def test_three_terminals_two_blocks(self):
        parts = [p for p in walk(3, 0b111) if len(p) == 2]
        assert len(parts) == 3
        assert parts == [(0b011, 0b100), (0b101, 0b010), (0b001, 0b110)]

    def test_counterexample_partition_counts(self):
        k2 = [p for p in walk(6, 0b111) if len(p) == 2]
        k3 = [p for p in walk(6, 0b111) if len(p) == 3]
        assert len(k2) == 24
        assert len(k3) == 27
        assert len(k2) + len(k3) == 51

    def test_block_missing_active_set_excluded(self):
        bad = (0b000111, 0b111000)  # {1,2,3}, {4,5,6}: second block misses A
        assert bad not in {p for p in walk(6, 0b111) if len(p) == 2}

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_all_active_counts_bell_minus_one(self, m):
        parts = walk(m, full_mask(m))
        assert len(parts) == BELL[m] - 1

    @pytest.mark.parametrize("m,active", [(4, 0b0011), (5, 0b10101), (6, 0b000111)])
    def test_matches_brute_force_filter(self, m, active):
        got = walk(m, active)
        assert len(got) == len(set(got))
        assert set(got) == set(admissible(m, active))

    def test_canonical_block_order(self):
        for p in walk(5, 0b11111):
            lows = [b & -b for b in p]
            assert lows == sorted(lows)


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
        for p in admissible(4, full_mask(4)):
            assert partition_dependence(oracle, p) == 2

    def test_nonnegative_on_valid_oracles(self):
        for seed in range(4):
            oracle = make_oracle(random_linear_source(4, 4, 2, seed))
            for p in admissible(4, full_mask(4)):
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

    @pytest.mark.parametrize(
        "call",
        [
            lambda s: partition_dependence(make_oracle(s), (0b1000, 0b111)),
            lambda s: merge_terminals(s, (-1, 0b111)),
        ],
        ids=["above-m", "negative"],
    )
    def test_block_mask_out_of_range_is_invalid_input(self, call):
        with pytest.raises(InvalidInputError, match="out of range for m=3"):
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

    @pytest.mark.parametrize("active", (0b0, 0b1, 0b1000))
    def test_fewer_than_two_active_terminals(self, active):
        oracle = make_oracle(shared_bit_source(3))
        with pytest.raises(
            InvalidInputError, match="active set must have at least two"
        ):
            mutual_dependence_bound(oracle, active)

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
        for p in admissible(4, full_mask(4)):
            value = partition_dependence(oracle, p)
            merged = make_oracle(merge_terminals(src, p))
            k = len(p)
            singletons = tuple(1 << i for i in range(k))
            assert partition_dependence(merged, singletons) == value
            merged_bound, _ = mutual_dependence_bound(merged, full_mask(k))
            assert merged_bound <= value
