"""The scored partition walk behind ``mutual_dependence_bound``.

Given an integer table, ``enumerate_admissible`` yields each admissible
partition with the int key (sum_i joint[C_i] - joint[-1]) * L / (k-1),
L = lcm(1, ..., |A|-1), and ``mutual_dependence_bound`` keeps the least
key. These tests check the bound and its minimizers against the brute
force over unfiltered partitions (tables whose minimizers span several
block counts, tabular oracles and non-monotone tables read without
validation), check that the walk, on a table and on a zero table, yields
the partitions of ``helpers.admissible`` in the same order (up to m = 9,
with active sets that give the two terminals of the walk's last leaf every
active/inactive pattern), and check that every call drains the module
binding ``dependence.enumerate_admissible`` exactly once, over every
admissible partition, as the benchmark's tracer counts it. The walk's
pruning decides only its cost, so the number of table entries it reads is
pinned too: two per block count and two per prefix of an admissible
partition, counted by brute force.
"""

import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from omniscio import (
    counterexample_entropy_vector,
    dependence,
    make_oracle,
    make_sunflower,
    mutual_dependence_bound,
    random_linear_source,
)
from omniscio.cli import main
from omniscio.sources import EntropyVector, LinearGF2Source, TabularSource
from omniscio.subsets import full_mask

from helpers import admissible, brute_force_mutual_dependence_bound

GOLDEN_INPUT = str(Path(__file__).parent / "golden" / "counterexample.input.json")


def shared_bit_source(m):
    return LinearGF2Source(m, 1, tuple((1,) for _ in range(m)))


def random_tabular_source(m, seed):
    rng = random.Random(seed)
    alphabets = tuple(rng.choice((2, 3)) for _ in range(m))
    cells = [()]
    for size in alphabets:
        cells = [c + (x,) for c in cells for x in range(size)]
    weights = [rng.randrange(0, 4) for _ in cells]
    weights[0] += 1  # at least one cell carries mass
    total = sum(weights)
    pmf = tuple(
        (c, Fraction(w, total)) for c, w in zip(cells, weights) if w
    )
    return TabularSource(m, alphabets, pmf)


def random_table_oracle(m, seed):
    """An arbitrary int table with H(X_emptyset) = 0: often non-monotone,
    sometimes negative, read without validation."""
    rng = random.Random(seed)
    values = [0] + [Fraction(rng.randrange(-3, 9), rng.choice((1, 2, 3)))
                    for _ in range(1, 1 << m)]
    return make_oracle(EntropyVector(m, tuple(values)), validate=False)


def active_sets(m):
    full = full_mask(m)
    return sorted({full, 0b11, 0b101 & full, (full >> 1) | 1} - {1})


SPANNING = [
    pytest.param(make_sunflower(m, 2, 1), id=f"sunflower-m{m}") for m in (3, 4, 5)
] + [pytest.param(shared_bit_source(m), id=f"shared-bit-m{m}") for m in (3, 5)]


class TestAgainstBruteForce:
    @pytest.mark.parametrize("source", SPANNING)
    def test_minimizers_spanning_block_counts(self, source):
        oracle = make_oracle(source)
        active = full_mask(source.m)
        got = mutual_dependence_bound(oracle, active)
        assert got == brute_force_mutual_dependence_bound(oracle, active)
        # Every partition ties, so the minimizers cover every k in [2, m].
        assert {len(p) for p in got[1]} == set(range(2, source.m + 1))

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    @pytest.mark.parametrize("seed", range(4))
    def test_linear_sources(self, m, seed):
        oracle = make_oracle(random_linear_source(m, m, 1 + seed % 2, seed))
        for active in active_sets(m):
            assert mutual_dependence_bound(oracle, active) == (
                brute_force_mutual_dependence_bound(oracle, active)
            )

    def test_some_linear_minimizers_span_block_counts(self):
        spans = 0
        for seed in range(12):
            oracle = make_oracle(random_linear_source(5, 5, 1, seed))
            _, minimizers = mutual_dependence_bound(oracle, full_mask(5))
            spans += len({len(p) for p in minimizers}) > 1
        assert spans

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(3))
    def test_tabular_oracles(self, m, seed):
        oracle = make_oracle(random_tabular_source(m, seed))
        assert not oracle.exact
        for active in active_sets(m):
            assert mutual_dependence_bound(oracle, active) == (
                brute_force_mutual_dependence_bound(oracle, active)
            )

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    @pytest.mark.parametrize("seed", range(5))
    def test_unvalidated_tables(self, m, seed):
        oracle = random_table_oracle(m, seed)
        for active in active_sets(m):
            assert mutual_dependence_bound(oracle, active) == (
                brute_force_mutual_dependence_bound(oracle, active)
            )

    def test_published_invalid_table(self):
        oracle = make_oracle(counterexample_entropy_vector(), validate=False)
        assert mutual_dependence_bound(oracle, 0b111) == (
            brute_force_mutual_dependence_bound(oracle, 0b111)
        )


class TestKeys:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_tableless_walk_is_the_scored_one(self, m):
        for seed in range(2):
            oracle = random_table_oracle(m, seed)
            for active in active_sets(m):
                scored = list(dependence.enumerate_admissible(m, active, oracle.joint))
                plain = dependence.enumerate_admissible(m, active, bytes(1 << m))
                assert [p for _, p in scored] == admissible(m, active)
                assert [p for _, p in plain] == admissible(m, active)

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_key_is_scaled_dependence(self, m):
        oracle = random_table_oracle(m, m)
        active = full_mask(m)
        lcm = math.lcm(*range(1, m))
        for key, p in dependence.enumerate_admissible(m, active, oracle.joint):
            value = dependence.partition_dependence(oracle, p)
            assert Fraction(key, lcm * oracle.scale) == value


def leaf_active_sets(m):
    """Active sets giving the last two terminals, which the walk's leaf
    places, each of the four active/inactive patterns, plus |A| = 2 (the
    first two terminals and the last two) and A = M."""
    full = full_mask(m)
    tail = 3 << (m - 2)
    sets = {full, 0b11, tail}
    for pattern in (0, 1 << (m - 2), 1 << (m - 1), tail):
        for head in (0b0101010 & full & ~tail, full & ~tail):
            if (pattern | head).bit_count() >= 2:
                sets.add(pattern | head)
    return sorted(sets)


def tied_table_oracle(m):
    """One observed bit per terminal, out of m - 2: many partitions tie."""
    return make_oracle(random_linear_source(m, max(m - 2, 1), 1, m))


class TestTwoTerminalLeaf:
    @pytest.mark.parametrize("m", range(2, 10))
    def test_items_and_order(self, m):
        oracles = [tied_table_oracle(m)]
        if m <= 6:
            oracles.append(random_table_oracle(m, m))
        ties = 0
        for oracle in oracles:
            for active in leaf_active_sets(m):
                scored = list(
                    dependence.enumerate_admissible(m, active, oracle.joint)
                )
                assert [p for _, p in scored] == admissible(m, active)
                lcm = math.lcm(*range(1, active.bit_count()))
                for key, p in scored:
                    assert Fraction(key, lcm * oracle.scale) == (
                        dependence.partition_dependence(oracle, p)
                    )
                keys = [key for key, _ in scored]
                ties += len(set(keys)) < len(keys)
        assert ties or m == 2  # m = 2 has one partition


class TestTracedBinding:
    @pytest.fixture
    def drains(self, monkeypatch):
        """Items drawn from each call of ``dependence.enumerate_admissible``."""
        counts = []
        original = dependence.enumerate_admissible

        def counting(*args):
            counts.append(0)
            for item in original(*args):
                counts[-1] += 1
                yield item

        monkeypatch.setattr(dependence, "enumerate_admissible", counting)
        return counts

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_one_full_drain_per_call(self, drains, m):
        oracle = make_oracle(random_linear_source(m, m, 2, m))
        for active in active_sets(m):
            drains.clear()
            mutual_dependence_bound(oracle, active)
            assert drains == [len(admissible(m, active))]

    def test_cli_mdb_and_tight_drain_once(self, drains, capsys):
        # The six-terminal counterexample with A = {1,2,3}: 51 partitions.
        assert main(["mdb", GOLDEN_INPUT]) == 0
        assert drains == [51]
        drains.clear()
        assert main(["tight", GOLDEN_INPUT]) == 0
        assert drains == [51]
        capsys.readouterr()


class CountingTable(tuple):
    """An entropy table that counts the items read from it."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return tuple.__getitem__(self, index)


def growth_code(partition, m):
    """The partition's restricted-growth string as an int, four bits per
    terminal, terminal 1's block index the highest digit."""
    code = 0
    for j in range(m):
        index = next(i for i, block in enumerate(partition) if block >> j & 1)
        code = code << 4 | index
    return code


class TestWalkCost:
    """The walk reads two table entries per block count k, and two per
    prefix it extends, so with exact pruning it reads 2 + 2 P_k for each k,
    P_k the number of distinct restricted-growth prefixes, of lengths 1 to
    m, of the admissible k-partitions. A looser prune reads more: it
    extends prefixes that no admissible partition has."""

    @pytest.mark.parametrize("m", range(2, 9))
    def test_reads_two_per_block_count_and_per_prefix(self, m):
        by_k = {}
        for p in admissible(m, full_mask(m)):
            by_k.setdefault(len(p), []).append((p, growth_code(p, m)))
        for active in range(1 << m):
            if active.bit_count() < 2:
                continue
            table = CountingTable(bytes(1 << m))
            for _ in dependence.enumerate_admissible(m, active, table):
                pass
            # A k's partitions come in lexicographic order of their strings,
            # so each adds its length less the prefix it shares with the
            # one before: the digits up to the highest where the two differ.
            expected = 0
            for k in range(2, active.bit_count() + 1):
                prefixes, before = 0, None
                for p, code in by_k[k]:
                    if all(map(active.__and__, p)):
                        if before is None:
                            prefixes += m
                        else:
                            prefixes += ((code ^ before).bit_length() + 3) // 4
                        before = code
                expected += 2 + 2 * prefixes
            assert table.reads == expected, active
